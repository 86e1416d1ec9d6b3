"""k-NN scoring by per-row k-selection against a full stable sort.

The reference is the scorer that the selection replaced: the whole distance
matrix, stable-sorted per query row, with the mean label of the first k
columns. Every case must match it byte for byte, including many ties at the
k-th distance, requests spanning several row blocks and non-finite rows.
"""

import numpy as np
import pytest

from heartstack.learners import LearnerSpec, neighbors
from heartstack.learners.neighbors import KnnModel


def stable_sort_proba(X_train, y_train, k, X):
    d2 = (
        (X * X).sum(axis=1)[:, None]
        - 2.0 * X @ X_train.T
        + (X_train * X_train).sum(axis=1)[None, :]
    )
    nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return y_train[nearest].mean(axis=1)


def assert_matches_stable_sort(X_train, y_train, X, ks):
    for k in ks:
        model = KnnModel(LearnerSpec("knn", {"k": k}), X_train.shape[1], X_train, y_train, k)
        got = model._proba(X)
        want = stable_sort_proba(model.X_train, model.y_train, k, X)
        assert got.tobytes() == want.tobytes(), f"k={k}"


def tie_heavy(rng, n_distinct, repeats, d):
    """Integer-valued rows, each repeated; integer distances are exact, so
    many training rows tie at any k-th distance."""
    rows = rng.integers(-2, 3, size=(n_distinct, d)).astype(np.float64)
    return rng.permutation(np.repeat(rows, repeats, axis=0))


def test_every_k_on_a_small_set():
    rng = np.random.default_rng(11)
    X_train = rng.normal(size=(40, 4))
    y_train = rng.integers(0, 2, size=40)
    X = rng.normal(size=(60, 4))
    assert_matches_stable_sort(X_train, y_train, X, range(1, 41))


def test_every_k_with_many_ties():
    rng = np.random.default_rng(12)
    X_train = tie_heavy(rng, 12, 5, 3)
    y_train = rng.integers(0, 2, size=len(X_train))
    X = tie_heavy(rng, 20, 3, 3)
    assert_matches_stable_sort(X_train, y_train, X, range(1, len(X_train) + 1))


def test_requests_spanning_several_blocks(monkeypatch):
    monkeypatch.setattr(neighbors, "_ROWS_PER_BLOCK", 7)
    rng = np.random.default_rng(13)
    X_train = tie_heavy(rng, 15, 4, 3)
    y_train = rng.integers(0, 2, size=len(X_train))
    X = tie_heavy(rng, 17, 3, 3)  # 51 rows: seven full blocks and a part
    assert_matches_stable_sort(X_train, y_train, X, (1, 3, 8, 30, 60))


def test_non_finite_rows_keep_the_stable_sort_order():
    rng = np.random.default_rng(14)
    X_train = rng.normal(size=(30, 3))
    y_train = rng.integers(0, 2, size=30)
    X = rng.normal(size=(6, 3))
    X[1, 0] = np.nan
    X[3, 2] = np.inf
    X[4] = 1e200  # squares overflow to inf
    with np.errstate(invalid="ignore", over="ignore"):
        assert_matches_stable_sort(X_train, y_train, X, (1, 5, 30))


@pytest.mark.parametrize("n_rows", [0, 1])
def test_empty_and_single_row_requests(n_rows):
    rng = np.random.default_rng(15)
    X_train = rng.normal(size=(10, 2))
    y_train = rng.integers(0, 2, size=10)
    assert_matches_stable_sort(X_train, y_train, rng.normal(size=(n_rows, 2)), (1, 4, 10))
