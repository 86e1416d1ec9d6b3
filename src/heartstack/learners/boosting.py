"""Boosted ensembles: first-order GBM, second-order boosting, AdaBoost."""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ..errors import FitError
from .base import LearnerSpec, sigmoid
from .forest import TreeEnsembleModel
from .tree import GrowParams, SortedColumns, TreeBlock, _split_exhaustive, grow_tree, one_tree
from .tree import tree_apply  # noqa: F401  (perfbench's tracer times boosting.tree_apply)

# Stumps with weighted error at or above chance end AdaBoost; a perfect
# stump gets its weight from this floored error instead of infinity.
_ADA_EPS = 1e-10


def fit_gbm(spec: LearnerSpec, X, y) -> TreeEnsembleModel:
    """Stagewise additive model under logistic loss.

    Each stage fits a variance-reduction regression tree to the negative
    gradient (label minus predicted probability) and is added with
    shrinkage; the initial score is the log-odds of the training rate.
    """
    rate = float(y.mean())
    return _stagewise(spec, X, "variance", math.log(rate / (1.0 - rate)),
                      lambda margin: (y - sigmoid(margin), None))


def fit_xgb(spec: LearnerSpec, X, y) -> TreeEnsembleModel:
    """Second-order boosting: leaf weight -G/(H + lambda), split gain from
    the regularized score with a per-leaf penalty gamma."""
    def stage(margin):
        prob = sigmoid(margin)
        return prob - y, prob * (1.0 - prob)

    return _stagewise(spec, X, "second_order", 0.0, stage)


def _stagewise(spec: LearnerSpec, X, criterion: str, init_score: float,
               stage) -> TreeEnsembleModel:
    """n_estimators trees of ``criterion``, each grown on the (targets, row
    weights) that ``stage`` gives for the margin so far, which starts at
    init_score, and added to it times learning_rate."""
    p = spec.resolved()
    params = GrowParams(criterion=criterion, max_depth=p["max_depth"],
                        min_samples_split=p["min_samples_split"],
                        **{k: p[k] for k in ("reg_lambda", "gamma") if k in p})
    lr = p["learning_rate"]
    margin = np.full(X.shape[0], init_score)
    fitted = np.empty(X.shape[0])  # each training row's leaf in the latest stage
    columns = SortedColumns(X)  # every stage's root sorts the same rows
    trees = []
    for _ in range(p["n_estimators"]):
        targets, w = stage(margin)
        trees.append(grow_tree(columns, targets, params, w=w, fitted=fitted))
        margin += lr * fitted
    return TreeEnsembleModel(spec, X.shape[1], TreeBlock.concat(trees), init_score, lr)


def fit_adaboost(spec: LearnerSpec, X, y) -> TreeEnsembleModel:
    """Reweighted depth-1 stumps. Each stump's leaves hold its weight alpha
    signed by their weighted-majority vote: +alpha for class 1 and -alpha
    for class 0."""
    p = spec.resolved()
    n = X.shape[0]
    w = np.full(n, 1.0 / n)
    columns = SortedColumns(X)  # a stump splits only its root
    stumps: list[TreeBlock] = []
    for _ in range(p["n_estimators"]):
        stump, pred = _stump(columns, y, w)
        err = float(w[pred != y].sum())
        if err >= 0.5:
            if not stumps:
                raise FitError("adaboost: no stump beats chance on this data")
            break
        err = max(err, _ADA_EPS)
        alpha = math.log((1.0 - err) / err)
        signed = np.where(stump.value >= 0.5, alpha, -alpha)
        stumps.append(dataclasses.replace(stump, value=np.where(stump.feature == -1, signed, 0.0)))
        if err <= _ADA_EPS:
            break  # perfect stump; further rounds cannot change the vote
        w *= np.exp(alpha * (pred != y))
        w /= w.sum()
    return TreeEnsembleModel(spec, X.shape[1], TreeBlock.concat(stumps))


def _stump(columns: SortedColumns, y, w) -> tuple[TreeBlock, np.ndarray]:
    """The weighted-gini stump on the rows of ``columns``, its leaves
    holding their weighted class-1 share, and each row's label: 1 where its
    leaf's share is at least 0.5. A pure root, or one with no cut, is a
    leaf; any other splits on its best cut, even at zero gain."""
    def share(w1, wt):
        return min(max(w1, 0.0), wt) / wt

    n = len(y)
    w1, wt = float(w[y == 1].sum()), float(w.sum())
    found = None
    if 0.0 < w1 < wt:
        feats = np.arange(len(columns.XT), dtype=np.intp)
        found = _split_exhaustive(columns.node((), np.arange(n)), feats, w * (y == 1), None, w,
                                  "gini", require_positive=False)
    if found is None:
        return one_tree([(-1, 0.0, share(w1, wt))]), np.full(n, int(share(w1, wt) >= 0.5))
    feature, threshold, _, left_w1, left_wt = found
    shares = share(left_w1, left_wt), share(w1 - left_w1, wt - left_wt)
    labels = np.where(columns.XT[feature] <= threshold, *shares) >= 0.5
    return (one_tree([(feature, threshold, 0.0)] + [(-1, 0.0, v) for v in shares]),
            labels.astype(np.int64))
