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
    TARGET_SPEC,
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

        rows = list(reader)
    if not rows:
        raise DataError(f"{source_name}: empty dataset (header only)")
    columns = [(positions[s.name], s) for s in FEATURE_SPECS]
    if target_pos is not None:
        columns.append((target_pos, _TARGET_CELL_SPEC))
    try:
        table = _parse_columns(rows, len(header), columns)
    except ValueError:  # a row or cell breaks a rule: raise its error
        table = _parse_rows(rows, len(header), columns, source_name)
    X = np.ascontiguousarray(table[:, :N_FEATURES])
    # Learned parameters are bounded by PARAMETER_BOUND for the same reason:
    # products of features summed over a row or a training set must not
    # overflow (at 1e160, naive_bayes squares a deviation to inf and scores
    # inf - inf).
    from .learners.base import PARAMETER_BOUND  # here, so importing dataset loads no learner
    huge = np.abs(X) > PARAMETER_BOUND
    if huge.any():
        row, col = np.argwhere(huge)[0]
        raise DataError(f"{source_name}: row {row + 1}, column {FEATURE_SPECS[col].name!r}: "
                        f"value {float(X[row, col])!r} is beyond +-{PARAMETER_BOUND:g}")
    if target_pos is None:
        return X, None, source_name
    targets = table[:, N_FEATURES]
    outside = ~((targets >= -2.0**63) & (targets < 2.0**63))
    if outside.any():
        raise DataError(f"{source_name}: row {np.argmax(outside) + 1}, column 'target': "
                        "code out of the integer range")
    return X, targets.astype(np.int64), source_name


def _parse_columns(rows, width: int, columns) -> np.ndarray:
    """The cells of ``columns``, a list of (position, spec), as an (n rows,
    len(columns)) float array, parsed a column at a time. ValueError if a
    row is not ``width`` cells long or a cell breaks a rule of _parse_cell;
    otherwise the values equal _parse_cell's."""
    if set(map(len, rows)) != {width}:
        raise ValueError("a row has the wrong number of cells")
    cells = list(zip(*rows))
    table = np.empty((len(rows), len(columns)))
    for j, (pos, _) in enumerate(columns):
        # float() ignores the whitespace that _parse_cell strips.
        table[:, j] = np.fromiter(map(float, cells[pos]), np.float64, len(rows))
    if not np.isfinite(table).all():
        raise ValueError("a cell is not finite")
    nominal = [j for j, (_, spec) in enumerate(columns) if spec.kind == NOMINAL]
    codes = table[:, nominal]
    if (codes != np.trunc(codes)).any():
        raise ValueError("a code is not an integer")
    table[:, nominal] = codes + 0.0  # -0 is code 0
    return table


def _parse_rows(rows, width: int, columns, source_name: str) -> np.ndarray:
    """The same table parsed row after row, each cell through _parse_cell,
    so that the first row of the wrong length or bad cell, in row order,
    raises its DataError."""
    table = []
    for row_idx, cells in enumerate(rows):
        if len(cells) != width:
            raise DataError(
                f"{source_name}: row {row_idx + 1} has {len(cells)} cells, expected {width}"
            )
        table.append([_parse_cell(cells[pos].strip(), spec, row_idx, source_name)
                      for pos, spec in columns])
    return np.array(table, dtype=np.float64)


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


def require_valid_codes(X, y, source_name: str) -> None:
    """Raise DataError naming the first row, then column, of a scoring
    input whose nominal code lies outside its allowed codes (st_slope's
    code 0 is allowed), or, when there are targets, whose target is not 0
    or 1."""
    checked = [(X[:, col], spec) for col, spec in enumerate(FEATURE_SPECS)
               if spec.kind == NOMINAL]
    if y is not None:
        checked.append((y, TARGET_SPEC))
    bad = np.column_stack([~np.isin(values, list(spec.allowed_codes))
                           for values, spec in checked])
    if bad.any():
        row, j = np.argwhere(bad)[0]
        values, spec = checked[j]
        raise DataError(f"{source_name}: row {row + 1}, column {spec.name!r}: code "
                        f"{float(values[row]):g} is not one of {sorted(spec.allowed_codes)}")


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
