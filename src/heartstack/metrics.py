"""Binary-classification metrics, ROC and precision-recall curves.

Scalar metrics come in two flavours of "AUC": ``balanced_auc`` is the
single-threshold formula (sensitivity + specificity) / 2 used by the
evaluation tables, while ``RocCurve.area`` is the usual trapezoidal area
under the threshold-swept curve. Both are reported, labelled distinctly.

``roc_curve`` and ``pr_curve`` read one sweep: the scores are sorted once
and the confusion counts taken at each distinct score, descending, so tied
scores collapse to one operating point. Scores outside [0, 1], NaN
included, are refused.

Percentages in report tables are truncated toward zero (not rounded) to two
decimals; full precision is kept internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_trapezoid = getattr(np, "trapezoid", None) or np.trapz

from .errors import DataError


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self):
        for name in ("tp", "tn", "fp", "fn"):
            v = getattr(self, name)
            if v < 0 or v != int(v):
                raise DataError(f"{name} must be a non-negative integer, got {v}")
        if self.total < 1:
            raise DataError("confusion matrix must count at least one row")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


def confusion_matrix(y_true, y_pred) -> ConfusionMatrix:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape or y_true.ndim != 1:
        raise DataError("label vectors must be 1-D and of equal length")
    if y_true.size < 1:
        raise DataError("need at least one scored row")
    for arr, name in ((y_true, "y_true"), (y_pred, "y_pred")):
        if not np.isin(arr, (0, 1)).all():
            raise DataError(f"{name} contains non-binary labels")
    return ConfusionMatrix(
        tp=int(((y_true == 1) & (y_pred == 1)).sum()),
        tn=int(((y_true == 0) & (y_pred == 0)).sum()),
        fp=int(((y_true == 0) & (y_pred == 1)).sum()),
        fn=int(((y_true == 1) & (y_pred == 0)).sum()),
    )


METRIC_NAMES = ("accuracy", "precision", "sensitivity", "specificity", "f1", "balanced_auc", "mcc")


@dataclass(frozen=True)
class MetricReport:
    accuracy: float | None
    precision: float | None
    sensitivity: float | None
    specificity: float | None
    f1: float | None
    balanced_auc: float | None
    mcc: float | None
    undefined: frozenset[str]

    def to_dict(self) -> dict:
        return {**{name: getattr(self, name) for name in METRIC_NAMES},
                "undefined": sorted(self.undefined)}

    def display_row(self) -> dict[str, str]:
        """Two-decimal percentage strings (truncated), '-' when undefined."""
        out = {}
        for name in METRIC_NAMES:
            v = getattr(self, name)
            out[name] = "-" if v is None else f"{truncate_percent(v):.2f}"
        return out


def truncate_percent(value: float) -> float:
    """100*value truncated toward zero to two decimals (report-table
    convention); a value that truncates to zero gives 0.0, never -0.0."""
    hundredths = math.floor(abs(value) * 100 * 100 + 1e-9)
    return (hundredths if value >= 0 else -hundredths) / 100


def _ratio(num: int, den: int) -> float | None:
    return None if den == 0 else num / den


def metric_report(cm: ConfusionMatrix) -> MetricReport:
    """Evaluate the scalar metric suite; zero denominators are flagged
    undefined instead of raising."""
    tp, tn, fp, fn = cm.tp, cm.tn, cm.fp, cm.fn
    sensitivity = _ratio(tp, tp + fn)
    specificity = _ratio(tn, tn + fp)
    accuracy = (tp + tn) / cm.total
    precision = _ratio(tp, tp + fp)
    if precision is not None and sensitivity is not None and precision + sensitivity > 0:
        f1 = 2 * precision * sensitivity / (precision + sensitivity)
    else:
        f1 = None
    if sensitivity is not None and specificity is not None:
        balanced_auc = (sensitivity + specificity) / 2
    else:
        balanced_auc = None
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    mcc = None if denom == 0 else (tp * tn - fp * fn) / math.sqrt(denom)

    values = {
        "accuracy": accuracy, "precision": precision, "sensitivity": sensitivity,
        "specificity": specificity, "f1": f1, "balanced_auc": balanced_auc, "mcc": mcc,
    }
    undefined = frozenset(k for k, v in values.items() if v is None)
    return MetricReport(undefined=undefined, **values)


@dataclass(frozen=True)
class RocCurve:
    points: tuple[tuple[float, float], ...]  # (fpr, tpr), threshold descending
    area: float


@dataclass(frozen=True)
class PrCurve:
    points: tuple[tuple[float, float], ...]  # (recall, precision), threshold descending
    area: float
    average_precision: float


def _check_scores(y_true, scores):
    y_true = np.asarray(y_true)
    scores = np.asarray(scores, dtype=np.float64)
    if y_true.shape != scores.shape or y_true.ndim != 1 or y_true.size == 0:
        raise DataError("labels and scores must be equal-length 1-D vectors")
    if not np.isin(y_true, (0, 1)).all():
        raise DataError("labels must be binary")
    if not ((scores >= 0) & (scores <= 1)).all():
        raise DataError("scores must lie in [0, 1]")
    return y_true, scores


def _sweep(y_true, scores):
    """(fp, tp, neg, pos): the false- and true-positive counts of the rule
    score >= t at each distinct score t, descending, and the class totals."""
    y_true, scores = _check_scores(y_true, scores)
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    # Keep only the last index of each tied-score run.
    last_of_run = np.nonzero(np.append(sorted_scores[1:] != sorted_scores[:-1], True))[0]
    tp = np.cumsum(y_true[order] == 1)[last_of_run]
    fp = last_of_run + 1 - tp
    return fp, tp, int(fp[-1]), int(tp[-1])


def roc_curve(y_true, scores) -> RocCurve:
    """(fpr, tpr) from the (0,0) sentinel to (1,1) at the lowest
    threshold. Trapezoidal area."""
    fp, tp, neg, pos = _sweep(y_true, scores)
    if pos == 0 or neg == 0:
        raise DataError("ROC needs both classes present")
    fpr = np.append(0.0, fp / neg)
    tpr = np.append(0.0, tp / pos)
    return RocCurve(tuple(zip(fpr.tolist(), tpr.tolist())), float(_trapezoid(tpr, fpr)))


def pr_curve(y_true, scores) -> PrCurve:
    """(recall, precision) at each distinct threshold, descending.

    average_precision is the step-sum over recall increments, added left to
    right; area is the trapezoid over the swept points.
    """
    fp, tp, _, pos = _sweep(y_true, scores)
    if pos == 0:
        raise DataError("PR curve needs at least one positive row")
    recall = tp / pos
    precision = tp / (tp + fp)
    ap = float(np.cumsum(np.diff(recall, prepend=0.0) * precision)[-1])
    area = float(_trapezoid(precision, recall)) if recall.size > 1 else float(precision[0])
    return PrCurve(tuple(zip(recall.tolist(), precision.tolist())), area, ap)
