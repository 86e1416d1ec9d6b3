"""k-nearest-neighbour classifier on standardized features."""

from __future__ import annotations

import numpy as np

from .base import LearnerSpec, TrainedModel, finite_array, pack, unpack
from ..errors import FitError

# Query rows are scored in blocks of at most this many, which bounds the
# distance matrix and its selection arrays whatever the request size.
_ROWS_PER_BLOCK = 1024


class KnnModel(TrainedModel):
    """Stores the (standardized) training rows; probability is the class-1
    fraction among the k nearest by Euclidean distance, with distance ties
    broken toward the lower training-row index. Scoring selects the k
    nearest of each query row, block by block of a fixed number of rows,
    so its memory does not grow with the request size. A document packs
    the rows row-major as float64 and the labels as int32."""

    def __init__(self, spec, n_features_in, X_train, y_train, k: int):
        super().__init__(spec, n_features_in)
        self.X_train = np.asarray(X_train, dtype=np.float64)
        self.y_train = np.asarray(y_train, dtype=np.int64)
        self.k = k

    def _proba(self, X):
        train_sq = (self.X_train * self.X_train).sum(axis=1)[None, :]
        ones = np.empty(len(X))
        for lo in range(0, len(X), _ROWS_PER_BLOCK):
            rows = X[lo:lo + _ROWS_PER_BLOCK]
            # d2 = |x|^2 - 2x.t + |t|^2, evaluated in that order but in place.
            d2 = 2.0 * rows @ self.X_train.T
            np.subtract((rows * rows).sum(axis=1)[:, None], d2, out=d2)
            d2 += train_sq
            ones[lo:lo + len(rows)] = _nearest_ones(d2, self.y_train, self.k)
        # A sum of 0/1 labels is exact, so this equals the neighbours' mean.
        return ones / self.k

    def params_payload(self):
        return {"X_train": pack(self.X_train, "<f8"), "y_train": pack(self.y_train, "<i4"),
                "k": self.k}

    @classmethod
    def from_payload(cls, spec, n_features_in, payload):
        """Inverse of params_payload. Raises ValueError unless both arrays
        are packed, the labels are 0 or 1, ``k`` is an integer in
        [1, len(y_train)] and X_train holds, row-major, a finite matrix of
        one row per label and n_features_in columns."""
        y_train = unpack(payload["y_train"], "<i4")
        k = payload["k"]
        if not np.isin(y_train, (0, 1)).all():
            raise ValueError("knn y_train must be 0/1 labels")
        X_train = unpack(payload["X_train"], "<f8")
        shape = (len(y_train), n_features_in)
        if len(X_train) != shape[0] * shape[1]:
            raise ValueError(f"knn X_train must have shape {shape}")
        X_train = finite_array("knn X_train", X_train.reshape(shape), shape)
        if type(k) is not int or not 1 <= k <= len(y_train):
            raise ValueError(f"knn k must be an integer in [1, {len(y_train)}]")
        return cls(spec, n_features_in, X_train, y_train, k)


def _nearest_ones(d2, y_train, k: int) -> np.ndarray:
    """Class-1 count among each row's k nearest training rows in ``d2``.

    The k nearest are every training row strictly nearer than the row's k-th
    smallest distance, then the rows at exactly that distance in index
    order: the set that the first k columns of a stable sort hold. A row
    with a non-finite distance is stable-sorted, as comparisons with NaN
    cannot place it.
    """
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
    within = d2 <= kth
    ones = np.count_nonzero(within & (y_train == 1), axis=1)
    # A row with more than k rows within reach drops its highest-index ties.
    surplus = np.count_nonzero(within, axis=1) - k
    crowded = np.flatnonzero(surplus > 0)
    if crowded.size:
        row, col = np.nonzero(d2[crowded] == kth[crowded])  # each row's ties in index order
        from_end = np.searchsorted(row, row, side="right") - 1 - np.arange(len(row))
        drop = (from_end < surplus[crowded][row]) & (y_train[col] == 1)
        ones[crowded] -= np.bincount(row[drop], minlength=crowded.size)
    odd = ~np.isfinite(d2).all(axis=1)
    if odd.any():
        nearest = np.argsort(d2[odd], axis=1, kind="stable")[:, :k]
        ones[odd] = y_train[nearest].sum(axis=1)
    return ones


def fit_knn(spec: LearnerSpec, X, y) -> KnnModel:
    p = spec.resolved()
    if p["k"] > X.shape[0]:
        raise FitError(f"knn: k={p['k']} exceeds the {X.shape[0]} training rows")
    return KnnModel(spec, X.shape[1], X, y, p["k"])
