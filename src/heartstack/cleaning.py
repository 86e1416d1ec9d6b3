"""Row cleaning: domain-validity and IQR outlier removal."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import DataError
from .schema import NUMERIC_FEATURES, feature_index

RULE_BP_ZERO = "resting_blood_pressure_zero"
RULE_IQR = "iqr_outlier"

STRATEGIES = ("none", "domain_validity", "iqr")


@dataclass(frozen=True)
class CleaningReport:
    strategy: str
    rows_removed: int
    removal_reasons: dict[str, int]
    n_input: int
    n_output: int

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "n_input": self.n_input,
            "n_output": self.n_output,
            "rows_removed": self.rows_removed,
            "removal_reasons": dict(self.removal_reasons),
        }


def clean(ds: Dataset, strategy: str = "iqr", iqr_k: float = 1.5) -> tuple[Dataset, CleaningReport]:
    """Apply the named strategy and report per-rule removal counts.

    ``none`` is the identity. ``domain_validity`` drops rows with a resting
    blood pressure of zero (physiologically impossible). ``iqr`` additionally
    drops rows where any numeric feature lies outside [Q1 - k*IQR, Q3 + k*IQR],
    with quartiles taken over the rows that survive the domain rule.
    """
    if strategy not in STRATEGIES:
        raise DataError(f"unknown cleaning strategy {strategy!r}")
    if strategy == "iqr" and not 0 < iqr_k < np.inf:
        raise DataError("iqr multiplier must be positive and finite")

    reasons: dict[str, int] = {}
    keep = np.ones(ds.n_rows, dtype=bool)

    if strategy in ("domain_validity", "iqr"):
        bp = ds.column("resting_blood_pressure")
        bad = bp == 0.0
        reasons[RULE_BP_ZERO] = int(bad.sum())
        keep &= ~bad

    if strategy == "iqr":
        survivors = np.nonzero(keep)[0]
        outlier = np.zeros(ds.n_rows, dtype=bool)
        for name in NUMERIC_FEATURES:
            col = ds.X[survivors, feature_index(name)]
            q1, q3 = np.percentile(col, [25, 75])
            lo, hi = q1 - iqr_k * (q3 - q1), q3 + iqr_k * (q3 - q1)
            full = ds.column(name)
            outlier |= keep & ((full < lo) | (full > hi))
        reasons[RULE_IQR] = int(outlier.sum())
        keep &= ~outlier

    removed = int((~keep).sum())
    if removed == ds.n_rows:
        raise DataError("cleaning would remove every row")
    cleaned = ds if strategy == "none" else ds.take(np.nonzero(keep)[0], cleaned=True)
    report = CleaningReport(strategy, removed, reasons, ds.n_rows, cleaned.n_rows)
    return cleaned, report
