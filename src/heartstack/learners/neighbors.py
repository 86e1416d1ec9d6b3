"""k-nearest-neighbour classifier on standardized features."""

from __future__ import annotations

import numpy as np

from .base import LearnerSpec, TrainedModel
from ..errors import FitError


class KnnModel(TrainedModel):
    """Stores the (standardized) training rows; probability is the class-1
    fraction among the k nearest by Euclidean distance, with distance ties
    broken toward the lower training-row index."""

    def __init__(self, spec, n_features_in, X_train, y_train, k: int, standardizer=None):
        super().__init__(spec, n_features_in, standardizer)
        self.X_train = np.asarray(X_train, dtype=np.float64)
        self.y_train = np.asarray(y_train, dtype=np.int64)
        self.k = k

    def _proba(self, X):
        d2 = (
            (X * X).sum(axis=1)[:, None]
            - 2.0 * X @ self.X_train.T
            + (self.X_train * self.X_train).sum(axis=1)[None, :]
        )
        # Stable sort keeps equal distances in row-index order.
        neighbors = np.argsort(d2, axis=1, kind="stable")[:, : self.k]
        return self.y_train[neighbors].mean(axis=1)

    def params_payload(self):
        return {"X_train": self.X_train.tolist(), "y_train": self.y_train.tolist(),
                "k": self.k}

    @classmethod
    def from_payload(cls, spec, n_features_in, payload, standardizer=None):
        """Inverse of params_payload. Raises ValueError unless the labels
        are 0 or 1, ``k`` is an integer in [1, len(y_train)] and X_train is
        a finite matrix of one row per label and n_features_in columns."""
        X_train = np.array(payload["X_train"], dtype=np.float64)
        y_train = np.array(payload["y_train"])
        k = payload["k"]
        if y_train.ndim != 1 or not np.isin(y_train, (0, 1)).all():
            raise ValueError("knn y_train must be a list of 0/1 labels")
        if X_train.shape != (len(y_train), n_features_in):
            raise ValueError(f"knn X_train must be {len(y_train)} x {n_features_in}, "
                             "one row per label")
        if not np.isfinite(X_train).all():
            raise ValueError("knn X_train is not finite")
        if type(k) is not int or not 1 <= k <= len(y_train):
            raise ValueError(f"knn k must be an integer in [1, {len(y_train)}]")
        return cls(spec, n_features_in, X_train, y_train, k, standardizer)


def fit_knn(spec: LearnerSpec, X, y) -> KnnModel:
    p = spec.resolved()
    if p["k"] > X.shape[0]:
        raise FitError(f"knn: k={p['k']} exceeds the {X.shape[0]} training rows")
    return KnnModel(spec, X.shape[1], X, y, p["k"])
