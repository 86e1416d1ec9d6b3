import csv
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from heartstack import dataset as dataset_module
from heartstack.dataset import parse_csv, parse_feature_csv, validate_schema
from heartstack.errors import DataError
from heartstack.learners.base import PARAMETER_BOUND
from heartstack.schema import FEATURE_NAMES, FEATURE_SPECS, TARGET_ALIASES, TARGET_SPEC
from test_pipeline_cli import hostile_csv

HEADER = ",".join(FEATURE_NAMES) + ",target"
ROW = "57,1,4,130,236,0,1,140,1,1.2,2,1"
ROW0 = "44,0,2,120,220,0,0,160,0,0.0,1,0"


def make_csv(*rows, header=HEADER):
    return io.StringIO("\n".join([header, *rows]) + "\n")


def reference_parse(source, require_target: bool):
    """The row-by-row table parse, kept as the reference for the parser:
    each row's cell count, then each of its cells through ``_parse_cell``,
    feature columns in schema order and then the target, row after row;
    then the +-PARAMETER_BOUND bound on feature values and the int64 range
    of target codes. Returns (X, y or None) or raises DataError."""
    handle, source_name = dataset_module._open_source(source)
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{source_name}: empty file") from None
        header = [h.strip() for h in header]
        positions, target_pos = {}, None
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
        rows, targets = [], []
        for row_idx, cells in enumerate(reader):
            if len(cells) != len(header):
                raise DataError(f"{source_name}: row {row_idx + 1} has {len(cells)} cells, "
                                f"expected {len(header)}")
            rows.append([dataset_module._parse_cell(cells[positions[s.name]].strip(), s,
                                                    row_idx, source_name)
                         for s in FEATURE_SPECS])
            if target_pos is not None:
                targets.append(int(dataset_module._parse_cell(
                    cells[target_pos].strip(), TARGET_SPEC, row_idx,
                    source_name)))
    if not rows:
        raise DataError(f"{source_name}: empty dataset (header only)")
    X = np.array(rows, dtype=np.float64)
    huge = np.abs(X) > PARAMETER_BOUND
    if huge.any():
        row, col = np.argwhere(huge)[0]
        raise DataError(f"{source_name}: row {row + 1}, column {FEATURE_SPECS[col].name!r}: "
                        f"value {float(X[row, col])!r} is beyond +-{PARAMETER_BOUND:g}")
    if target_pos is None:
        return X, None
    try:
        return X, np.array(targets, dtype=np.int64)
    except OverflowError:
        row = next(i for i, t in enumerate(targets) if not -2**63 <= t < 2**63)
        raise DataError(f"{source_name}: row {row + 1}, column 'target': "
                        "code out of the integer range") from None


def parse_outcome(parse, data: bytes, require_target: bool):
    """(X bytes, y bytes or None) of a parse, or its DataError message."""
    try:
        X, y = parse(data, require_target)[:2]
    except DataError as exc:
        return str(exc)
    assert X.dtype == np.float64 and X.flags.c_contiguous
    assert y is None or y.dtype == np.int64
    return X.shape, X.tobytes(), None if y is None else y.tobytes()


def assert_parses_as_reference(data: bytes):
    for require_target in (True, False):
        assert (parse_outcome(dataset_module._parse_table, data, require_target)
                == parse_outcome(reference_parse, data, require_target))


def with_row(row, at, cell):
    cells = row.split(",")
    cells[at] = cell
    return ",".join(cells)


FEATURE_HEADER = ",".join(FEATURE_NAMES)
ORACLE_CASES = {
    "basic": (HEADER, ROW, ROW0),
    "header_only": (HEADER,),
    "bad_cell": (HEADER, ROW0, ROW.replace("57,1,", "57,abc,", 1)),
    "missing_value": (HEADER, ROW.replace("236", "")),
    "code_not_integer": (HEADER, ROW.replace(",2,1", ",2.5,1")),
    "class_alias": (HEADER.replace(",target", ",class"), ROW, ROW0),
    "reordered": (",".join(["target"] + list(FEATURE_NAMES)[::-1]),
                  ",".join(ROW.split(",")[::-1])),
    "no_target": (FEATURE_HEADER, ROW.rsplit(",", 1)[0], ROW0.rsplit(",", 1)[0]),
    "code_out_of_range": (HEADER, ROW.replace(",140,1,", ",140,2,"), ROW0),
    "target_out_of_range": (HEADER, ROW.replace(",2,1", ",2,3")),
    "bound": (HEADER, ROW, ROW0.replace("220", "1e100"), ROW0.replace("220", "-1e100")),
    "beyond_bound": (HEADER, ROW, ROW0.replace("220", "1.0000000001e100")),
    "target_beyond_int64": (HEADER, ROW, ROW0[:-1] + "1e19"),
    "target_just_inside_int64": (HEADER, ROW0[:-1] + "-9223372036854775808"),
    "negative_zero": (HEADER, "-0,-0,4,-0.0,236,-0,1,140,1,-0,2,-0"),
    "padded_and_underscored": (HEADER, " 57 ,1 , 4,1_30,236,0,1,140,1,1.2,2,1"),
    # A short row after a bad cell, and a bad cell after a short row: the
    # first in row order is the error.
    "bad_cell_then_short_row": (HEADER, ROW0, with_row(ROW, 3, "x"), "1,2"),
    "short_row_then_bad_cell": (HEADER, ROW0, "1,2", with_row(ROW, 3, "x")),
    # Within a row, feature cells in schema order, then the target.
    "two_bad_cells": (HEADER, with_row(with_row(ROW, 11, "x"), 10, "nan")),
    "bad_target_then_huge": (HEADER, with_row(ROW, 11, "0.5"), ROW0.replace("220", "1e160")),
    "huge_then_bad_cell": (HEADER, ROW0.replace("220", "1e160"), with_row(ROW, 2, "inf")),
    "huge_then_target_overflow": (HEADER, ROW0[:-1] + "1e19", ROW.replace("236", "-1e160")),
    "blank_line": (HEADER, ROW, "", ROW0),
    "non_finite": (HEADER, ROW.replace("236", "1e400")),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_parse_equals_row_by_row_reference(case):
    assert_parses_as_reference(("\n".join(ORACLE_CASES[case]) + "\n").encode("utf8"))


def test_parse_of_the_stand_in_equals_row_by_row_reference(dataset_csv):
    assert_parses_as_reference(dataset_csv.read_bytes())


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_parse_of_hostile_csvs_equals_row_by_row_reference(data, dataset_csv):
    text = "\n".join(dataset_csv.read_text().splitlines()[:9]) + "\n"
    assert_parses_as_reference(hostile_csv(data, text))


def test_parse_basic_row():
    ds = parse_csv(make_csv(ROW, ROW0))
    assert ds.n_rows == 2
    assert ds.column("age")[0] == 57.0
    assert list(ds.y) == [1, 0]


def test_header_only_is_empty_dataset():
    with pytest.raises(DataError, match="empty dataset"):
        parse_csv(make_csv())


def test_empty_file():
    with pytest.raises(DataError, match="empty file"):
        parse_csv(io.StringIO(""))


def test_bad_cell_names_row_and_column():
    bad = ROW.replace("57,1,", "57,abc,", 1)
    with pytest.raises(DataError, match=r"row 1, column 'sex'"):
        parse_csv(make_csv(bad))


def test_missing_column_reported():
    header = ",".join(n for n in FEATURE_NAMES if n != "cholesterol") + ",target"
    with pytest.raises(DataError, match="cholesterol"):
        parse_csv(make_csv("1,2,3", header=header))


def test_unknown_column_reported():
    with pytest.raises(DataError, match="unknown column 'bogus'"):
        parse_csv(make_csv(header=HEADER + ",bogus"))


def test_duplicate_column_reported():
    with pytest.raises(DataError, match="duplicate"):
        parse_csv(make_csv(header=HEADER + ",age"))


def test_missing_value_is_hard_error():
    bad = ROW.replace("236", "")
    with pytest.raises(DataError, match="missing value"):
        parse_csv(make_csv(bad))


def test_class_header_alias_accepted():
    header = HEADER.replace(",target", ",class")
    ds = parse_csv(make_csv(ROW, ROW0, header=header))
    assert list(ds.y) == [1, 0]


def test_columns_matched_by_name_not_position():
    names = list(FEATURE_NAMES)
    reordered = ["target"] + names[::-1]
    cells = ROW.split(",")
    by_name = dict(zip(names + ["target"], cells))
    row = ",".join(by_name[n] for n in reordered)
    ds = parse_csv(make_csv(row, header=",".join(reordered)))
    assert ds.column("age")[0] == 57.0
    assert ds.column("st_slope")[0] == 2.0


def test_nominal_cell_must_be_integer():
    bad = ROW.replace(",2,1", ",2.5,1")
    with pytest.raises(DataError, match="integer code"):
        parse_csv(make_csv(bad))


def test_feature_csv_without_target():
    header = ",".join(FEATURE_NAMES)
    X, y = parse_feature_csv(make_csv(ROW.rsplit(",", 1)[0], header=header))
    assert X.shape == (1, 11)
    assert y is None


def test_validation_flags_out_of_range_code():
    bad = ROW.replace(",140,1,", ",140,2,")  # exercise_induced_angina = 2
    ds = parse_csv(make_csv(bad, ROW0))
    report = validate_schema(ds)
    assert not report.valid
    assert len(report.violations) == 1
    assert report.violations[0].column == "exercise_induced_angina"
    assert report.violations[0].row == 0


def test_chest_pain_code_four_is_valid():
    ds = parse_csv(make_csv(ROW, ROW0))  # chest_pain_type = 4 in ROW
    assert validate_schema(ds).valid


def test_st_slope_zero_warns_but_is_valid():
    slope_zero = ROW0.replace(",0.0,1,0", ",0.0,0,0")
    ds = parse_csv(make_csv(ROW, slope_zero))
    report = validate_schema(ds)
    assert report.valid
    assert len(report.warnings) == 1
    assert report.warnings[0].column == "st_slope"


def test_target_out_of_range_is_violation():
    bad = ROW.replace(",2,1", ",2,3")
    ds = parse_csv(make_csv(bad))
    report = validate_schema(ds)
    assert not report.valid
    assert report.violations[0].column == "target"


@pytest.mark.parametrize("value, accepted", [("1e100", True), ("-1e100", True),
                                             ("1.0000000001e100", False), ("-1e160", False)])
def test_feature_values_beyond_the_parameter_bound_name_their_cell(value, accepted):
    rows = (ROW, ROW0.replace("220", value))
    if accepted:
        assert parse_feature_csv(make_csv(*rows))[0][1, 4] == float(value)
    else:
        with pytest.raises(DataError, match=r"row 2, column 'cholesterol'"):
            parse_feature_csv(make_csv(*rows))


@pytest.mark.parametrize("code", ["1e19", "-1e19", "1e160"])
def test_target_code_beyond_int64_is_data_error(code):
    bad = ROW0[:-1] + code
    with pytest.raises(DataError, match=r"row 2, column 'target'"):
        parse_csv(make_csv(ROW, bad))


def test_dataset_arrays_immutable(dataset):
    with pytest.raises(ValueError):
        dataset.X[0, 0] = 99.0
    with pytest.raises(ValueError):
        dataset.y[0] = 1


def test_parse_holds_the_text_and_one_table(dataset_csv):
    # A 20,000-row scoring input keeps no row as strings: the peak is the
    # StringIO copy of its text, four bytes a character, and its float table
    # while it grows.
    lines = dataset_csv.read_text().splitlines()
    rows = [line.rsplit(",", 1)[0] for line in lines]
    text = "\n".join(rows[:1] + [rows[1 + i % (len(rows) - 1)] for i in range(20000)]) + "\n"
    data = text.encode()
    tracemalloc.start()
    try:
        X, _ = parse_feature_csv(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert X.shape == (20000, 11)
    assert peak <= 4 * len(text) + 2 * X.nbytes
