"""Boosted ensembles: first-order GBM, second-order boosting, AdaBoost."""

from __future__ import annotations

import math

import numpy as np

from ..errors import FitError
from .base import LearnerSpec, TrainedModel, sigmoid
from .forest import TreeEnsembleModel
from .tree import GrowParams, TreeBlock, TreeBuilder, grow_tree, tree_apply

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
        max_depth=p["max_depth"],
        min_samples_split=p["min_samples_split"],
        target_kind="regression_residual",
    )
    lr = p["learning_rate"]
    margin = np.full(X.shape[0], init_score)
    trees = []
    for _ in range(p["n_estimators"]):
        residual = y - sigmoid(margin)
        tree = grow_tree(X, residual, params)
        trees.append(tree)
        margin += lr * tree_apply(tree, X)[0]
    return TreeEnsembleModel(spec, X.shape[1], TreeBlock.concat(trees), init_score, lr)


def leaf_weight(g_sum: float, h_sum: float, reg_lambda: float) -> float:
    return -g_sum / (h_sum + reg_lambda)


def _xgb_best_split(X, g, h, reg_lambda, gamma):
    """Maximize 0.5*(GL^2/(HL+l) + GR^2/(HR+l) - G^2/(H+l)) - gamma over all
    midpoint cuts of all features; None when the best gain is not positive."""
    order = np.argsort(X, axis=0)
    Xs = np.take_along_axis(X, order, axis=0)
    cum_g = np.cumsum(g[order], axis=0)
    cum_h = np.cumsum(h[order], axis=0)
    G, H = cum_g[-1, 0], cum_h[-1, 0]
    gl, hl = cum_g[:-1], cum_h[:-1]
    gr, hr = G - gl, H - hl
    parent_score = G * G / (H + reg_lambda)
    gain = 0.5 * (gl * gl / (hl + reg_lambda) + gr * gr / (hr + reg_lambda) - parent_score) - gamma
    gain[Xs[1:] == Xs[:-1]] = -np.inf

    flat = np.argmax(gain.T)
    feature, cut = divmod(flat, gain.shape[0])
    if not gain[cut, feature] > 0.0:
        return None
    threshold = (Xs[cut, feature] + Xs[cut + 1, feature]) / 2.0
    return int(feature), float(threshold)


def _grow_xgb_tree(X, g, h, max_depth, min_samples_split, reg_lambda, gamma) -> TreeBlock:
    tree = TreeBuilder()
    stack = [(0, np.arange(X.shape[0]), 0)]
    while stack:
        node, rows, depth = stack.pop()
        split = None
        if (max_depth is None or depth < max_depth) and len(rows) >= min_samples_split:
            split = _xgb_best_split(X[rows], g[rows], h[rows], reg_lambda, gamma)
        if split is None:
            tree.leaf(node, leaf_weight(g[rows].sum(), h[rows].sum(), reg_lambda))
            continue
        feature, threshold = split
        left, right = tree.split(node, feature, threshold)
        go_left = X[rows, feature] <= threshold
        stack.append((right, rows[~go_left], depth + 1))
        stack.append((left, rows[go_left], depth + 1))
    return tree.block()


def fit_xgb(spec: LearnerSpec, X, y) -> TreeEnsembleModel:
    """Second-order boosting: leaf weight -G/(H + lambda), split gain from
    the regularized score with a per-leaf penalty gamma."""
    p = spec.resolved()
    lr = p["learning_rate"]
    margin = np.zeros(X.shape[0])
    trees = []
    for _ in range(p["n_estimators"]):
        prob = sigmoid(margin)
        g = prob - y
        h = prob * (1.0 - prob)
        tree = _grow_xgb_tree(X, g, h, p["max_depth"], p["min_samples_split"],
                              p["reg_lambda"], p["gamma"])
        trees.append(tree)
        margin += lr * tree_apply(tree, X)[0]
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
        alphas = [float(a) for a in payload["alphas"]]
        if len(alphas) != stumps.n_trees or not np.isfinite(alphas).all():
            raise ValueError("adaboost needs one finite alpha per stump")
        return cls(spec, n_features_in, stumps, alphas)


def fit_adaboost(spec: LearnerSpec, X, y) -> AdaboostModel:
    p = spec.resolved()
    n = X.shape[0]
    w = np.full(n, 1.0 / n)
    params = GrowParams(criterion="gini", max_depth=1)
    stumps: list[TreeBlock] = []
    alphas: list[float] = []
    for _ in range(p["n_estimators"]):
        stump = grow_tree(X, y, params, w=w)
        pred = (tree_apply(stump, X)[0] >= 0.5).astype(np.int64)
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
