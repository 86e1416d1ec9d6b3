import numpy as np
import pytest

from heartstack.analysis import correlation_matrix, correlation_with_target, summarize
from heartstack.dataset import Dataset
from heartstack.schema import FEATURE_NAMES


def build(rows, targets):
    return Dataset(np.array(rows, dtype=float), np.array(targets))


def toy_rows(n, rng):
    return [
        [50 + i, i % 2, 1 + i % 4, 120 + i, 200 + 3 * i, i % 2, i % 3,
         150 - i, i % 2, 0.1 * i, 1 + i % 3]
        for i in range(n)
    ]


def test_feature_equal_to_target_correlates_fully():
    rng = np.random.default_rng(0)
    rows = toy_rows(10, rng)
    targets = [r[1] for r in rows]  # sex column == target
    table = correlation_with_target(build(rows, targets))
    assert table.entries["sex"] == pytest.approx(1.0)


def test_constant_feature_flagged_undefined():
    rows = toy_rows(8, None)
    for r in rows:
        r[4] = 250.0  # cholesterol constant
    table = correlation_with_target(build(rows, [0, 1] * 4))
    assert "cholesterol" in table.undefined
    assert np.isnan(table.entries["cholesterol"])


def test_all_coefficients_in_range(dataset):
    table = correlation_with_target(dataset)
    for name, value in table.entries.items():
        if name not in table.undefined:
            assert -1.0 <= value <= 1.0


def test_matrix_symmetric_unit_diagonal(dataset):
    names, M = correlation_matrix(dataset)
    assert names == FEATURE_NAMES + ("target",)
    assert (M == M.T).all()
    assert (np.diag(M) == 1.0).all()


def test_matrix_target_row_matches_table(dataset):
    table = correlation_with_target(dataset)
    names, M = correlation_matrix(dataset)
    target_row = M[-1]
    for i, name in enumerate(FEATURE_NAMES):
        if name not in table.undefined:
            assert target_row[i] == pytest.approx(table.entries[name], abs=1e-9)


def test_summary_class_counts_balanced_pair():
    rows = toy_rows(2, None)
    report = summarize(build(rows, [0, 1]))
    assert report.class_counts == {0: 1, 1: 1}


def test_summary_single_row_histograms():
    rows = toy_rows(1, None)
    report = summarize(build(rows, [1]))
    for hist in report.histograms.values():
        total = sum(sum(v) for v in hist.counts_by_class.values())
        nonzero_bins = sum(
            1 for i in range(len(hist.edges) - 1)
            if any(hist.counts_by_class[c][i] for c in (0, 1))
        )
        assert total == 1
        assert nonzero_bins == 1


def test_summary_conservation(dataset):
    report = summarize(dataset)
    n = dataset.n_rows
    assert sum(report.class_counts.values()) == n
    for hist in report.histograms.values():
        assert sum(sum(v) for v in hist.counts_by_class.values()) == n
    for codes in report.nominal_counts.values():
        assert sum(c for by_class in codes.values() for c in by_class.values()) == n
    decade_total = sum(
        count
        for slopes in report.slope_by_age_decade.values()
        for by_class in slopes.values()
        for count in by_class.values()
    )
    assert decade_total == n
