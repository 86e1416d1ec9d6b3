import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heartstack.dataset import Dataset
from heartstack.errors import DataError
from heartstack.splitting import stratified_split


def toy(n_per_class):
    rng = np.random.default_rng(42)
    rows = []
    targets = []
    for cls, count in enumerate(n_per_class):
        for _ in range(count):
            rows.append(rng.normal(size=11))
            targets.append(cls)
    return Dataset(np.array(rows), np.array(targets))


def test_exact_proportionality():
    ds = toy([5, 5])
    pair = stratified_split(ds, 0.8, seed=0)
    assert pair.train.n_rows == 8
    assert pair.test.n_rows == 2
    assert int(pair.train.y.sum()) == 4
    assert int(pair.test.y.sum()) == 1


def test_same_seed_identical_split():
    ds = toy([20, 30])
    a = stratified_split(ds, 0.8, seed=42)
    b = stratified_split(ds, 0.8, seed=42)
    assert (a.train.X == b.train.X).all()
    assert (a.test.X == b.test.X).all()
    c = stratified_split(ds, 0.8, seed=43)
    assert not (a.train.X == c.train.X).all()


def test_small_class_rejected():
    ds = toy([1, 10])
    with pytest.raises(DataError, match="fewer than 2"):
        stratified_split(ds, 0.8, seed=0)


def test_bad_fraction_rejected():
    ds = toy([5, 5])
    for fraction in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(DataError):
            stratified_split(ds, fraction, seed=0)


def sorted_rows(X, y):
    table = np.column_stack([X, y])
    return table[np.lexsort(table.T[::-1])]


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 40), st.integers(2, 40),
       st.floats(0.1, 0.9), st.integers(0, 2**31 - 1))
def test_partition_and_proportionality(n0, n1, fraction, seed):
    ds = toy([n0, n1])
    n = ds.n_rows
    if not 0 < round(fraction * n) < n:
        with pytest.raises(DataError):
            stratified_split(ds, float(fraction), seed)
        return
    pair = stratified_split(ds, float(fraction), seed)
    assert pair.train.n_rows == round(fraction * n)
    assert pair.train.n_rows + pair.test.n_rows == n
    # multiset equality of rows
    merged = np.vstack([
        np.column_stack([pair.train.X, pair.train.y]),
        np.column_stack([pair.test.X, pair.test.y]),
    ])
    original = np.column_stack([ds.X, ds.y])
    assert (merged[np.lexsort(merged.T[::-1])] == original[np.lexsort(original.T[::-1])]).all()
    # per-class counts within 1 of exact proportionality
    for cls, count in ((0, n0), (1, n1)):
        got = int((pair.train.y == cls).sum())
        assert abs(got - fraction * count) <= 1.0 + 1e-9
