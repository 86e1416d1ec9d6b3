"""Single CART trees, the two tree forests, and the tree-ensemble model
that also serves the boosted ensembles and AdaBoost."""

from __future__ import annotations

import numpy as np

from ..rng import stream
from .base import LearnerSpec, TrainedModel, finite_array, resolve_max_features, sigmoid
from .tree import GrowParams, TreeBlock, grow_forest, tree_apply

BOOSTED = frozenset({"gbm", "xgb_style"})


class TreeEnsembleModel(TrainedModel):
    """All trees of a model in one TreeBlock, with a link set by the algorithm.

    cart, random_forest and extra_trees output the mean leaf value; for the
    forests that is the probability-weighted majority vote. gbm and
    xgb_style output sigmoid(init_score + sum of learning_rate * leaf), with
    an init_score of 0 for xgb_style. AdaBoost's leaves are +-alpha, its
    stump's weight, and it outputs sigmoid(2 * total / alpha_sum): the
    alpha-weighted mean vote, in [-1, 1], so thresholding at 0.5 gives the
    weighted majority label. A stump's alpha is the largest |value| of its
    nodes, and alpha_sum adds them in tree order; a document whose alphas
    are all 0 scores 0.5. Leaves are added one tree at a time, in tree
    order.
    """

    def __init__(self, spec, n_features_in, trees: TreeBlock,
                 init_score: float = 0.0, learning_rate: float = 1.0):
        super().__init__(spec, n_features_in)
        self.trees = trees
        self.init_score = init_score
        self.learning_rate = learning_rate

    @property
    def boosted(self) -> bool:
        return self.spec.algorithm in BOOSTED

    def _sums(self, X, counts: list[int]) -> list[np.ndarray]:
        """init_score plus learning_rate times the leaf values of the first
        c trees, for each c in the ascending ``counts``."""
        leaves = tree_apply(self.trees, X)
        total = np.full(X.shape[0], self.init_score)
        out = []
        done = 0
        for c in counts:
            while done < c:
                total += self.learning_rate * leaves[done]
                done += 1
            out.append(total.copy())
        return out

    def _link(self, total, n_trees: int) -> np.ndarray:
        if self.spec.algorithm == "adaboost":
            alphas = np.maximum.reduceat(np.abs(self.trees.value), self.trees.roots)
            alpha_sum = sum(alphas[:n_trees].tolist())
            return sigmoid(2.0 * (total / alpha_sum if alpha_sum else np.zeros_like(total)))
        return sigmoid(total) if self.boosted else total / n_trees

    def _proba(self, X):
        return self._link(self._sums(X, [self.trees.n_trees])[0], self.trees.n_trees)

    def staged_proba(self, X, checkpoints: list[int]) -> list[np.ndarray]:
        """Probabilities using only the first c trees, for each c.

        Identical to fitting a smaller ensemble: a forest tree's random
        stream depends only on (seed, t), and boosting stage t only on the
        stages before it.
        """
        X = self._prepare(X)
        counts = sorted(checkpoints)
        return [np.clip(self._link(total, c), 0.0, 1.0)
                for total, c in zip(self._sums(X, counts), counts)]

    def params_payload(self):
        payload = {"trees": self.trees.to_dict(self.n_features_in)}
        if self.boosted:
            payload.update(init_score=self.init_score, learning_rate=self.learning_rate)
        return payload

    @classmethod
    def from_payload(cls, spec, n_features_in, payload):
        trees = TreeBlock.from_dict(payload["trees"], n_features_in)
        if spec.algorithm not in BOOSTED:
            return cls(spec, n_features_in, trees)
        init_score, learning_rate = (float(finite_array(field, payload[field], ()))
                                     for field in ("init_score", "learning_rate"))
        return cls(spec, n_features_in, trees, init_score, learning_rate)


def fit_cart(spec: LearnerSpec, X, y) -> TreeEnsembleModel:
    """One full-sample tree that scores every midpoint of its candidates."""
    return _fit_trees(spec, X, y, bootstrap=False, candidate_mode="exhaustive",
                      rngs=[stream(spec.seed, "cart")])


def fit_random_forest(spec: LearnerSpec, X, y) -> TreeEnsembleModel:
    """Bootstrap-resampled trees with per-node feature subsampling."""
    return _fit_trees(spec, X, y, bootstrap=True, candidate_mode="exhaustive")


def fit_extra_trees(spec: LearnerSpec, X, y) -> TreeEnsembleModel:
    """Full-sample trees with one random threshold per candidate feature."""
    return _fit_trees(spec, X, y, bootstrap=False, candidate_mode="random_threshold")


def _fit_trees(spec, X, y, bootstrap: bool, candidate_mode: str, rngs=None) -> TreeEnsembleModel:
    p = spec.resolved()
    d = X.shape[1]
    params = GrowParams(
        criterion=p["criterion"],
        max_depth=p["max_depth"],
        min_samples_split=p["min_samples_split"],
        feature_subsample=resolve_max_features(p["max_features"], d),
        candidate_mode=candidate_mode,
    )
    if rngs is None:
        # One stream per tree: tree t depends only on (seed, t), so the first
        # c trees of a forest are the forest of c trees (staged_proba needs it).
        rngs = [stream(spec.seed, "tree", t) for t in range(p["n_estimators"])]
    return TreeEnsembleModel(spec, d, grow_forest(X, y, params, rngs, bootstrap))
