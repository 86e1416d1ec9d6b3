import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heartstack.errors import DataError
from heartstack.metrics import (
    ConfusionMatrix,
    confusion_matrix,
    metric_report,
    pr_curve,
    roc_curve,
    truncate_percent,
)


def test_perfect_prediction_counts():
    cm = confusion_matrix([1, 1, 0, 0], [1, 1, 0, 0])
    assert (cm.tp, cm.tn, cm.fp, cm.fn) == (2, 2, 0, 0)


def test_total_error_counts():
    cm = confusion_matrix([1, 0], [0, 1])
    assert (cm.tp, cm.tn, cm.fp, cm.fn) == (0, 0, 1, 1)


def test_length_mismatch_rejected():
    with pytest.raises(DataError):
        confusion_matrix([1, 0], [1])
    with pytest.raises(DataError):
        confusion_matrix([1, 2], [1, 0])


def test_balanced_matrix_is_uninformative():
    for k in (1, 3, 10):
        report = metric_report(ConfusionMatrix(tp=k, tn=k, fp=k, fn=k))
        assert report.mcc == 0.0
        assert report.accuracy == 0.5


def test_perfect_matrix_scores_one():
    report = metric_report(ConfusionMatrix(tp=5, tn=5, fp=0, fn=0))
    for name in ("accuracy", "precision", "sensitivity", "specificity", "f1",
                 "balanced_auc", "mcc"):
        assert getattr(report, name) == 1.0


def test_zero_denominators_flagged_not_raised():
    report = metric_report(ConfusionMatrix(tp=0, tn=4, fp=0, fn=0))
    assert report.sensitivity is None
    assert report.precision is None
    assert "sensitivity" in report.undefined
    assert report.accuracy == 1.0


def test_truncate_percent_is_truncation():
    assert truncate_percent(115 / 123) == 93.49  # rounds to 93.50, truncates to 93.49
    assert truncate_percent(0.92) == 92.00
    assert truncate_percent(0.923404) == 92.34
    assert truncate_percent(-0.0692640692640692) == -6.92  # floors to -6.93
    assert truncate_percent(-115 / 123) == -93.49
    assert f"{truncate_percent(-0.00004):.2f}" == "0.00"  # never -0.00


@settings(deadline=None, max_examples=60)
@given(st.tuples(st.integers(0, 40), st.integers(0, 40), st.integers(0, 40),
                 st.integers(0, 40)).filter(lambda t: sum(t) >= 1))
def test_degeneracy_safety_and_bounds(counts):
    tp, tn, fp, fn = counts
    report = metric_report(ConfusionMatrix(tp=tp, tn=tn, fp=fp, fn=fn))
    for name in ("accuracy", "precision", "sensitivity", "specificity", "f1",
                 "balanced_auc"):
        value = getattr(report, name)
        assert value is None or 0.0 <= value <= 1.0
    assert report.mcc is None or -1.0 <= report.mcc <= 1.0
    # algebraic identities via independent formulas
    assert report.accuracy == (tp + tn) / (tp + tn + fp + fn)
    if report.f1 is not None:
        assert report.f1 == pytest.approx(2 * tp / (2 * tp + fp + fn))
    if report.balanced_auc is not None:
        assert report.balanced_auc == (report.sensitivity + report.specificity) / 2
    if report.mcc is not None:
        assert (report.mcc == 1.0) == (fp == 0 and fn == 0 and tp > 0 and tn > 0)


def test_roc_perfect_and_inverted():
    y = np.array([0, 0, 1, 1])
    assert roc_curve(y, y.astype(float)).area == 1.0
    assert roc_curve(y, 1.0 - y).area == 0.0


def test_roc_requires_both_classes():
    with pytest.raises(DataError):
        roc_curve([1, 1, 1], [0.2, 0.5, 0.9])


def mann_whitney(y, scores):
    """Pair-counting oracle: fraction of positive-negative pairs ranked
    correctly, ties counting one half."""
    pos = scores[y == 1]
    neg = scores[y == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def test_roc_area_equals_pair_counting_oracle():
    rng = np.random.default_rng(11)
    for trial in range(31):
        n = int(rng.integers(5, 25))
        y = rng.integers(0, 2, n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        scores = np.round(rng.random(n), 2)  # rounded scores force ties
        if trial == 30:
            scores = np.full(n, 0.5)  # all tied: one operating point
        curve = roc_curve(y, scores)
        assert curve.area == pytest.approx(mann_whitney(y, scores), abs=1e-12)
        # Every point against a literal enumeration of the thresholds.
        expected = [(0.0, 0.0)]
        for t in sorted(set(scores), reverse=True):
            pred = scores >= t
            expected.append((int((pred & (y == 0)).sum()) / int((y == 0).sum()),
                             int((pred & (y == 1)).sum()) / int((y == 1).sum())))
        assert curve.points == tuple(expected)


def test_roc_monotone_with_sentinels():
    rng = np.random.default_rng(5)
    y = rng.integers(0, 2, 40)
    y[0], y[1] = 0, 1
    curve = roc_curve(y, rng.random(40))
    pts = np.array(curve.points)
    assert tuple(pts[0]) == (0.0, 0.0)
    assert tuple(pts[-1]) == (1.0, 1.0)
    assert (np.diff(pts[:, 0]) >= 0).all()
    assert (np.diff(pts[:, 1]) >= 0).all()


def pr_oracle(y, scores):
    """Literal threshold enumeration of the (recall, precision) points and
    the average precision."""
    thresholds = sorted(set(scores), reverse=True)
    points = []
    ap = 0.0
    prev_recall = 0.0
    pos = int((y == 1).sum())
    for t in thresholds:
        pred = scores >= t
        tp = int((pred & (y == 1)).sum())
        precision = tp / int(pred.sum())
        recall = tp / pos
        points.append((recall, precision))
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return points, ap


def test_pr_trivial_cases():
    y = np.array([0, 1, 1, 0])
    perfect = pr_curve(y, y.astype(float))
    assert perfect.average_precision == pytest.approx(1.0)
    constant = pr_curve(y, np.full(4, 0.5))
    assert len(constant.points) == 1
    assert constant.average_precision == pytest.approx(0.5)  # prevalence


def test_pr_matches_enumeration_oracle():
    rng = np.random.default_rng(23)
    for trial in range(31):
        n = int(rng.integers(4, 25))
        y = rng.integers(0, 2, n)
        if (y == 1).sum() == 0:
            y[0] = 1
        scores = np.round(rng.random(n), 2)
        if trial == 30:
            scores = np.full(n, 0.5)  # all tied: one operating point
        curve = pr_curve(y, scores)
        points, ap = pr_oracle(y, scores)
        assert curve.points == tuple(points)
        assert curve.average_precision == pytest.approx(ap, abs=1e-12)
        area = sum((r1 - r0) * (p0 + p1) / 2 for (r0, p0), (r1, p1) in zip(points, points[1:]))
        assert curve.area == pytest.approx(area if len(points) > 1 else points[0][1], abs=1e-12)


def test_scores_out_of_range_rejected():
    with pytest.raises(DataError):
        roc_curve([0, 1], [0.5, 1.5])
    nan = float("nan")
    for curve in (roc_curve, pr_curve):
        with pytest.raises(DataError, match=r"\[0, 1\]"):
            curve([0, 1, 0, 1], [nan, 0.9, 0.2, nan])
