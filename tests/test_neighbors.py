"""k-NN scoring by per-row k-selection against a full stable sort.

The reference is the scorer that the selection replaced: the whole distance
matrix, stable-sorted per query row, with the mean label of the first k
columns. Every case must match it byte for byte, including many ties at the
k-th distance, requests spanning several row blocks and non-finite rows,
also when a block is finished in slices of a few rows. On float data the
scorer must match, byte for byte, the one that finished each 1024-row block
whole, and its memory must stay within one block's distances and a little.
"""

import tracemalloc

import numpy as np
import pytest

from heartstack.learners import LearnerSpec, neighbors
from heartstack.learners.neighbors import KnnModel

NEAREST_ONES = neighbors._nearest_ones


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


def small_set():
    rng = np.random.default_rng(11)
    X_train = rng.normal(size=(40, 4))
    y_train = rng.integers(0, 2, size=40)
    X = rng.normal(size=(60, 4))
    return X_train, y_train, X, range(1, 41)


def many_ties():
    rng = np.random.default_rng(12)
    X_train = tie_heavy(rng, 12, 5, 3)
    y_train = rng.integers(0, 2, size=len(X_train))
    X = tie_heavy(rng, 20, 3, 3)
    return X_train, y_train, X, range(1, len(X_train) + 1)


def several_blocks():
    """Ties in a request of seven blocks of seven rows and a part."""
    rng = np.random.default_rng(13)
    X_train = tie_heavy(rng, 15, 4, 3)
    y_train = rng.integers(0, 2, size=len(X_train))
    X = tie_heavy(rng, 17, 3, 3)  # 51 rows
    return X_train, y_train, X, (1, 3, 8, 30, 60)


def non_finite_rows():
    rng = np.random.default_rng(14)
    X_train = rng.normal(size=(30, 3))
    y_train = rng.integers(0, 2, size=30)
    X = rng.normal(size=(6, 3))
    X[1, 0] = np.nan
    X[3, 2] = np.inf
    X[4] = 1e200  # squares overflow to inf
    return X_train, y_train, X, (1, 5, 30)


def n_row_request(n_rows):
    rng = np.random.default_rng(15)
    X_train = rng.normal(size=(10, 2))
    y_train = rng.integers(0, 2, size=10)
    return X_train, y_train, rng.normal(size=(n_rows, 2)), (1, 4, 10)


CASES = {"small_set": small_set, "many_ties": many_ties, "several_blocks": several_blocks,
         "non_finite_rows": non_finite_rows, "empty_request": lambda: n_row_request(0),
         "single_row_request": lambda: n_row_request(1)}


def test_every_k_on_a_small_set():
    assert_matches_stable_sort(*small_set())


def test_every_k_with_many_ties():
    assert_matches_stable_sort(*many_ties())


def test_requests_spanning_several_blocks(monkeypatch):
    monkeypatch.setattr(neighbors, "_ROWS_PER_BLOCK", 7)
    assert_matches_stable_sort(*several_blocks())


def test_non_finite_rows_keep_the_stable_sort_order():
    with np.errstate(invalid="ignore", over="ignore"):
        assert_matches_stable_sort(*non_finite_rows())


@pytest.mark.parametrize("n_rows", [0, 1])
def test_empty_and_single_row_requests(n_rows):
    assert_matches_stable_sort(*n_row_request(n_rows))


@pytest.mark.parametrize("rows_per_slice", [1, 3, 7])
@pytest.mark.parametrize("case", sorted(CASES))
def test_blocks_finished_in_slices_match_the_stable_sort(case, rows_per_slice, monkeypatch):
    monkeypatch.setattr(neighbors, "_ROWS_PER_BLOCK", 7)
    monkeypatch.setattr(neighbors, "_ROWS_PER_SLICE", rows_per_slice)
    with np.errstate(invalid="ignore", over="ignore"):
        assert_matches_stable_sort(*CASES[case]())


def whole_block_scores(X_train, y_train, k, X):
    """The scorer before blocks were finished in slices: each 1024-row
    block's distances are finished and selected whole. Returns the
    probabilities and every distance, in row order."""
    train_sq = (X_train * X_train).sum(axis=1)[None, :]
    ones = np.empty(len(X))
    blocks = [np.empty((0, len(X_train)))]
    for lo in range(0, len(X), 1024):
        rows = X[lo:lo + 1024]
        d2 = 2.0 * rows @ X_train.T
        np.subtract((rows * rows).sum(axis=1)[:, None], d2, out=d2)
        d2 += train_sq
        ones[lo:lo + len(rows)] = NEAREST_ONES(d2, y_train, k)
        blocks.append(d2)
    return ones / k, np.concatenate(blocks)


@pytest.fixture(scope="module")
def study_shape():
    """940 x 11 float training rows, the study's train split shape, and
    2500 float query rows. Integer data has exact distances at any product
    shape, so only float data shows a product taken at another shape."""
    rng = np.random.default_rng(16)
    return rng.normal(size=(940, 11)), rng.integers(0, 2, size=940), rng.normal(size=(2500, 11))


@pytest.mark.parametrize("k", [1, 9, 940])
@pytest.mark.parametrize("n_rows", [1, 235, 1024, 1025, 2500])
def test_float_data_matches_whole_blocks_bit_for_bit(n_rows, k, study_shape, monkeypatch):
    # A last-bit change in a distance seldom changes which rows are nearest,
    # so the distances the selection is given are compared too.
    seen = [np.empty((0, 940))]

    def recording(d2, y_train, k):
        seen.append(d2.copy())
        return NEAREST_ONES(d2, y_train, k)

    monkeypatch.setattr(neighbors, "_nearest_ones", recording)
    X_train, y_train, queries = study_shape
    model = KnnModel(LearnerSpec("knn", {"k": k}), 11, X_train, y_train, k)
    X = queries[:n_rows]
    got = model._proba(X)
    want, want_d2 = whole_block_scores(X_train, y_train, k, X)
    assert np.concatenate(seen).tobytes() == want_d2.tobytes()
    assert got.tobytes() == want.tobytes()


def test_scoring_holds_one_distance_block(study_shape):
    X_train, y_train, queries = study_shape
    model = KnnModel(LearnerSpec("knn", {"k": 9}), 11, X_train, y_train, 9)
    X = np.resize(queries, (4096, 11))
    tracemalloc.start()
    try:
        model.predict_proba(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One 1024-row block of float64 distances, plus a quarter for the rest.
    assert peak <= 1.25 * 1024 * len(X_train) * 8
