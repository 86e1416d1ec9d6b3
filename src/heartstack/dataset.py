"""Dataset container, CSV ingestion and schema validation."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DataError
from .schema import (
    FEATURE_NAMES,
    FEATURE_SPECS,
    N_FEATURES,
    NOMINAL,
    ST_SLOPE_WARNING_CODE,
    TARGET_ALIASES,
    AttributeSpec,
)


@dataclass(frozen=True)
class Provenance:
    source: str
    cleaned: bool = False


@dataclass(frozen=True)
class Dataset:
    """Immutable feature table (n x 11 float) with a binary target vector."""

    X: np.ndarray
    y: np.ndarray
    provenance: Provenance

    def __post_init__(self):
        X = np.asarray(self.X, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.int64)
        if X.ndim != 2 or X.shape[1] != N_FEATURES:
            raise DataError(f"expected {N_FEATURES} feature columns, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise DataError("target length does not match row count")
        if X.shape[0] < 1:
            raise DataError("empty dataset")
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    def column(self, name: str) -> np.ndarray:
        return self.X[:, FEATURE_NAMES.index(name)]

    def take(self, indices, cleaned: bool | None = None) -> "Dataset":
        prov = self.provenance if cleaned is None else replace(self.provenance, cleaned=cleaned)
        return Dataset(self.X[indices], self.y[indices], prov)


@dataclass(frozen=True)
class Violation:
    row: int  # 0-based data row index
    column: str
    value: float
    reason: str


@dataclass(frozen=True)
class ValidationReport:
    n_rows: int
    violations: tuple[Violation, ...]
    warnings: tuple[Violation, ...]

    @property
    def valid(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        def enc(v: Violation) -> dict:
            return {"row": v.row, "column": v.column, "value": v.value, "reason": v.reason}

        return {
            "n_rows": self.n_rows,
            "valid": self.valid,
            "violations": [enc(v) for v in self.violations],
            "warnings": [enc(v) for v in self.warnings],
        }


def _open_source(source):
    """The source's text as a stream, and its name for messages."""
    if isinstance(source, (str, Path)):
        try:
            data, name = Path(source).read_bytes(), str(source)
        except OSError as exc:
            raise DataError(f"cannot read dataset: {exc}") from None
    elif isinstance(source, (bytes, bytearray)):
        data, name = source, "<bytes>"
    elif hasattr(source, "read"):
        data, name = source.read(), getattr(source, "name", "<stream>")
    else:
        raise DataError(f"unsupported CSV source {type(source).__name__}")
    try:
        text = data if isinstance(data, str) else data.decode("utf8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{name}: not UTF-8 text: {exc}") from None
    return io.StringIO(text, newline=""), name


def parse_csv(source) -> Dataset:
    """Read a comma-separated table with a header row into a Dataset.

    Columns are matched to the canonical schema by name (order-insensitive);
    the target column may be named ``target`` or ``class``. Any unknown,
    missing or duplicated column and any cell that does not parse as its
    declared kind is a hard error with row/column coordinates.
    """
    X, y, source_name = _parse_table(source, require_target=True)
    return Dataset(X, y, Provenance(source=source_name))


def parse_feature_csv(source) -> tuple[np.ndarray, np.ndarray | None]:
    """Like parse_csv but the target column is optional (scoring inputs)."""
    X, y, _ = _parse_table(source, require_target=False)
    return X, y


def _parse_table(source, require_target: bool):
    handle, source_name = _open_source(source)
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{source_name}: empty file") from None
        header = [h.strip() for h in header]

        positions: dict[str, int] = {}
        target_pos = None
        for pos, name in enumerate(header):
            if name in TARGET_ALIASES:
                if target_pos is not None:
                    raise DataError(f"{source_name}: duplicate target column {name!r}")
                target_pos = pos
            elif name in FEATURE_NAMES:
                if name in positions:
                    raise DataError(f"{source_name}: duplicate column {name!r}")
                positions[name] = pos
            else:
                raise DataError(f"{source_name}: unknown column {name!r}")
        missing = [n for n in FEATURE_NAMES if n not in positions]
        if target_pos is None and require_target:
            missing.append("target")
        if missing:
            raise DataError(f"{source_name}: missing column(s) {', '.join(missing)}")

        columns = [(positions[s.name], s) for s in FEATURE_SPECS]
        rows: list[list[float]] = []
        targets: list[int] = []
        for row_idx, cells in enumerate(reader):
            if len(cells) != len(header):
                raise DataError(
                    f"{source_name}: row {row_idx + 1} has {len(cells)} cells, expected {len(header)}"
                )
            parsed = [_parse_cell(cells[pos].strip(), spec, row_idx, source_name)
                      for pos, spec in columns]
            if target_pos is not None:
                target_cell = cells[target_pos].strip()
                targets.append(int(_parse_cell(target_cell, _TARGET_CELL_SPEC, row_idx, source_name)))
            rows.append(parsed)

    if not rows:
        raise DataError(f"{source_name}: empty dataset (header only)")
    X = np.array(rows, dtype=np.float64)
    y = np.array(targets, dtype=np.int64) if target_pos is not None else None
    return X, y, source_name


# Target cells share nominal parsing rules but range checking is deferred
# to validate_schema, so accept any integer code here.
_TARGET_CELL_SPEC = AttributeSpec("target", NOMINAL, frozenset(range(-128, 128)))


def _parse_cell(cell: str, spec: AttributeSpec, row_idx: int, source_name: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        problem = "missing value" if cell == "" else f"cannot parse {cell!r} as a number"
    else:
        if not math.isfinite(value):
            problem = f"non-finite value {cell!r}"
        elif spec.kind != NOMINAL:
            return value
        elif value == int(value):
            return float(int(value))
        else:
            problem = f"expected an integer code, got {cell!r}"
    # The location is formatted only on failure, as this runs once per cell.
    raise DataError(f"{source_name}: row {row_idx + 1}, column {spec.name!r}: {problem}")


def validate_schema(ds: Dataset) -> ValidationReport:
    """Report every nominal cell outside its allowed codes.

    st_slope code 0 is reported as a warning rather than a violation, and
    out-of-range targets are violations. A report with zero violations
    marks the dataset valid.
    """
    violations: list[Violation] = []
    warnings: list[Violation] = []
    for col, spec in enumerate(FEATURE_SPECS):
        if spec.kind != NOMINAL:
            continue
        values = ds.X[:, col]
        for row in np.nonzero(~np.isin(values, list(spec.allowed_codes)))[0]:
            violations.append(Violation(int(row), spec.name, float(values[row]),
                                        "code outside allowed set"))
        if spec.name == "st_slope":
            for row in np.nonzero(values == ST_SLOPE_WARNING_CODE)[0]:
                warnings.append(Violation(int(row), spec.name, float(values[row]),
                                          "code 0 is undocumented but occurs in shipped files"))
    for row in np.nonzero(~np.isin(ds.y, (0, 1)))[0]:
        violations.append(Violation(int(row), "target", float(ds.y[row]),
                                    "target must be 0 or 1"))
    return ValidationReport(ds.n_rows, tuple(violations), tuple(warnings))
