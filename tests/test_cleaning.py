import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heartstack.cleaning import RULE_BP_ZERO, clean
from heartstack.dataset import Dataset, Provenance
from heartstack.errors import DataError
from heartstack.schema import feature_index


def toy_dataset(rows, targets):
    return Dataset(np.array(rows, dtype=float), np.array(targets),
                   Provenance(source="toy"))


def typical_row(bp=120.0):
    row = [55.0, 1.0, 3.0, bp, 230.0, 0.0, 1.0, 150.0, 0.0, 1.0, 2.0]
    return row


def test_none_is_identity(dataset):
    cleaned, report = clean(dataset, "none")
    assert cleaned is dataset
    assert report.rows_removed == 0
    assert report.removal_reasons == {}


def test_domain_validity_removes_zero_blood_pressure():
    ds = toy_dataset([typical_row(), typical_row(bp=0.0), typical_row(bp=130.0)],
                     [0, 1, 1])
    cleaned, report = clean(ds, "domain_validity")
    assert cleaned.n_rows == 2
    assert report.removal_reasons == {RULE_BP_ZERO: 1}
    assert (cleaned.column("resting_blood_pressure") > 0).all()
    assert cleaned.provenance.cleaned


def test_iqr_removes_far_outlier():
    rows = [typical_row(bp=float(b)) for b in range(110, 140, 2)]
    rows.append(typical_row(bp=500.0))
    ds = toy_dataset(rows, [i % 2 for i in range(len(rows))])
    cleaned, report = clean(ds, "iqr", 1.5)
    assert report.rows_removed == 1
    assert 500.0 not in cleaned.column("resting_blood_pressure")


def test_report_sums_and_monotone(dataset):
    for strategy in ("none", "domain_validity", "iqr"):
        cleaned, report = clean(dataset, strategy)
        assert report.rows_removed == sum(report.removal_reasons.values())
        assert cleaned.n_rows <= dataset.n_rows
        assert cleaned.n_rows == dataset.n_rows - report.rows_removed


def test_unknown_strategy_rejected(dataset):
    with pytest.raises(DataError):
        clean(dataset, "zap")


@pytest.mark.parametrize("k", [0.0, -1.0, float("nan"), float("inf")])
def test_iqr_multiplier_must_be_positive_and_finite(k):
    ds = toy_dataset([typical_row(), typical_row(bp=130.0)], [0, 1])
    with pytest.raises(DataError, match="positive and finite"):
        clean(ds, "iqr", k)


def test_removing_all_rows_is_an_error():
    ds = toy_dataset([typical_row(bp=0.0), typical_row(bp=0.0)], [0, 1])
    with pytest.raises(DataError, match="every row"):
        clean(ds, "domain_validity")


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2**31 - 1), st.floats(0.5, 3.0))
def test_cleaning_monotone_on_random_tables(seed, k):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 40))
    rows = []
    for _ in range(n):
        row = typical_row(bp=float(rng.integers(0, 240)))
        row[4] = float(rng.integers(100, 500))  # cholesterol
        rows.append(row)
    targets = rng.integers(0, 2, n)
    ds = toy_dataset(rows, targets)
    try:
        cleaned, report = clean(ds, "iqr", float(k))
    except DataError:
        return  # everything removed; the guard fired
    assert cleaned.n_rows + report.rows_removed == ds.n_rows
