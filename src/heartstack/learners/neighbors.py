"""k-nearest-neighbour classifier on standardized features."""

from __future__ import annotations

import numpy as np

from .base import LearnerSpec, TrainedModel, finite_array
from ..errors import FitError


class KnnModel(TrainedModel):
    """Stores the (standardized) training rows; probability is the class-1
    fraction among the k nearest by Euclidean distance, with distance ties
    broken toward the lower training-row index."""

    def __init__(self, spec, n_features_in, X_train, y_train, k: int):
        super().__init__(spec, n_features_in)
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
    def from_payload(cls, spec, n_features_in, payload):
        """Inverse of params_payload. Raises ValueError unless the labels
        are 0 or 1, ``k`` is an integer in [1, len(y_train)] and X_train is
        a finite matrix of one row per label and n_features_in columns."""
        y_train = np.array(payload["y_train"])
        k = payload["k"]
        if y_train.ndim != 1 or not np.isin(y_train, (0, 1)).all():
            raise ValueError("knn y_train must be a list of 0/1 labels")
        X_train = finite_array("knn X_train", payload["X_train"], (len(y_train), n_features_in))
        if type(k) is not int or not 1 <= k <= len(y_train):
            raise ValueError(f"knn k must be an integer in [1, {len(y_train)}]")
        return cls(spec, n_features_in, X_train, y_train, k)


def fit_knn(spec: LearnerSpec, X, y) -> KnnModel:
    p = spec.resolved()
    if p["k"] > X.shape[0]:
        raise FitError(f"knn: k={p['k']} exceeds the {X.shape[0]} training rows")
    return KnnModel(spec, X.shape[1], X, y, p["k"])
