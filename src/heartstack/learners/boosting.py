"""Boosted ensembles: first-order GBM, second-order boosting, AdaBoost."""

from __future__ import annotations

import math

import numpy as np

from ..errors import FitError
from .base import LearnerSpec, TrainedModel, finite_array, sigmoid
from .forest import TreeEnsembleModel
from .tree import GrowParams, SortedColumns, TreeBlock, grow_tree, tree_apply
from .tree import leaf_weight  # noqa: F401  (xgb_style's leaf formula, importable from here too)

# Stumps with weighted error at or above chance end AdaBoost; a perfect
# stump gets its weight from this floored error instead of infinity.
_ADA_EPS = 1e-10


def fit_gbm(spec: LearnerSpec, X, y) -> TreeEnsembleModel:
    """Stagewise additive model under logistic loss.

    Each stage fits a variance-reduction regression tree to the negative
    gradient (label minus predicted probability) and is added with
    shrinkage; the initial score is the log-odds of the training rate.
    """
    p = spec.resolved()
    rate = float(y.mean())
    init_score = math.log(rate / (1.0 - rate))
    params = GrowParams(
        criterion="variance",
        max_depth=p["max_depth"],
        min_samples_split=p["min_samples_split"],
    )
    lr = p["learning_rate"]
    margin = np.full(X.shape[0], init_score)
    fitted = np.empty(X.shape[0])  # each training row's leaf in the latest stage
    columns = SortedColumns(X)  # every stage's root sorts the same rows
    trees = []
    for _ in range(p["n_estimators"]):
        residual = y - sigmoid(margin)
        trees.append(grow_tree(columns, residual, params, fitted=fitted))
        margin += lr * fitted
    return TreeEnsembleModel(spec, X.shape[1], TreeBlock.concat(trees), init_score, lr)


def fit_xgb(spec: LearnerSpec, X, y) -> TreeEnsembleModel:
    """Second-order boosting: leaf weight -G/(H + lambda), split gain from
    the regularized score with a per-leaf penalty gamma."""
    p = spec.resolved()
    params = GrowParams(
        criterion="second_order",
        max_depth=p["max_depth"],
        min_samples_split=p["min_samples_split"],
        reg_lambda=p["reg_lambda"],
        gamma=p["gamma"],
    )
    lr = p["learning_rate"]
    margin = np.zeros(X.shape[0])
    fitted = np.empty(X.shape[0])
    columns = SortedColumns(X)
    trees = []
    for _ in range(p["n_estimators"]):
        prob = sigmoid(margin)
        trees.append(grow_tree(columns, prob - y, params, w=prob * (1.0 - prob), fitted=fitted))
        margin += lr * fitted
    return TreeEnsembleModel(spec, X.shape[1], TreeBlock.concat(trees), 0.0, lr)


class AdaboostModel(TrainedModel):
    """Reweighted depth-1 stumps with a weighted-majority output.

    The probability is sigmoid(2 * s) where s is the alpha-weighted mean
    vote in [-1, 1], so thresholding at 0.5 reproduces the weighted
    majority label.
    """

    def __init__(self, spec, n_features_in, stumps: TreeBlock, alphas: list[float]):
        super().__init__(spec, n_features_in)
        self.stumps = stumps
        self.alphas = alphas

    def decision(self, X) -> np.ndarray:
        total = np.zeros(X.shape[0])
        alpha_sum = sum(self.alphas)
        if alpha_sum == 0.0:
            return total
        for leaf, alpha in zip(tree_apply(self.stumps, X), self.alphas):
            votes = np.where(leaf >= 0.5, 1.0, -1.0)
            total += alpha * votes
        return total / alpha_sum

    def _proba(self, X):
        return sigmoid(2.0 * self.decision(X))

    def params_payload(self):
        return {"stumps": self.stumps.to_dict(), "alphas": list(self.alphas)}

    @classmethod
    def from_payload(cls, spec, n_features_in, payload):
        stumps = TreeBlock.from_dict(payload["stumps"], n_features_in)
        alphas = finite_array("adaboost alphas", payload["alphas"], (stumps.n_trees,)).tolist()
        return cls(spec, n_features_in, stumps, alphas)


def fit_adaboost(spec: LearnerSpec, X, y) -> AdaboostModel:
    p = spec.resolved()
    n = X.shape[0]
    w = np.full(n, 1.0 / n)
    params = GrowParams(criterion="gini", max_depth=1)
    fitted = np.empty(n)
    columns = SortedColumns(X)  # a stump splits only its root
    stumps: list[TreeBlock] = []
    alphas: list[float] = []
    for _ in range(p["n_estimators"]):
        stump = grow_tree(columns, y, params, w=w, fitted=fitted)
        pred = (fitted >= 0.5).astype(np.int64)
        err = float(w[pred != y].sum())
        if err >= 0.5:
            if not stumps:
                raise FitError("adaboost: no stump beats chance on this data")
            break
        err = max(err, _ADA_EPS)
        alpha = math.log((1.0 - err) / err)
        stumps.append(stump)
        alphas.append(alpha)
        if err <= _ADA_EPS:
            break  # perfect stump; further rounds cannot change the vote
        w *= np.exp(alpha * (pred != y))
        w /= w.sum()
    return AdaboostModel(spec, X.shape[1], TreeBlock.concat(stumps), alphas)
