"""Stratified train/test splitting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import DataError
from .rng import stream


@dataclass(frozen=True)
class SplitPair:
    train: Dataset
    test: Dataset
    seed: int
    fraction: float
    train_rows: np.ndarray  # indices of train's and test's rows in the split dataset
    test_rows: np.ndarray


def stratified_split(ds: Dataset, fraction: float, seed: int) -> SplitPair:
    """Split rows into train/test, preserving class proportions.

    |train| = round(fraction * n); per-class train counts are the largest-
    remainder apportionment of that total, so each class deviates from exact
    proportionality by at most one row. Rows are shuffled per class with a
    generator derived from the seed, making the split reproducible.
    """
    if not 0.0 < fraction < 1.0:
        raise DataError(f"split fraction must be in (0, 1), got {fraction}")
    classes, counts = np.unique(ds.y, return_counts=True)
    if (counts < 2).any():
        small = classes[counts < 2]
        raise DataError(f"class {small[0]} has fewer than 2 rows")

    n = ds.n_rows
    n_train = int(round(fraction * n))
    if n_train < 1 or n_train >= n:
        raise DataError(
            f"fraction {fraction} leaves an empty train or test side for {n} rows"
        )
    exact = fraction * counts
    base = np.floor(exact).astype(int)
    remainder = exact - base
    deficit = n_train - int(base.sum())
    # Hand the leftover rows to the classes with the largest remainders,
    # ties resolved toward the lower class label.
    order = np.lexsort((classes, -remainder))
    take = base.copy()
    for i in range(deficit):
        take[order[i % len(classes)]] += 1

    train_idx: list[np.ndarray] = []
    test_idx: list[np.ndarray] = []
    for cls, n_take in zip(classes, take):
        rows = np.nonzero(ds.y == cls)[0]
        rows = rows[stream(seed, "split", int(cls)).permutation(len(rows))]
        train_idx.append(rows[:n_take])
        test_idx.append(rows[n_take:])
    train_rows = np.sort(np.concatenate(train_idx))
    test_rows = np.sort(np.concatenate(test_idx))
    return SplitPair(ds.take(train_rows), ds.take(test_rows), seed, fraction,
                     train_rows, test_rows)
