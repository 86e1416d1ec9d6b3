import io

import numpy as np
import pytest

from heartstack.dataset import parse_csv, parse_feature_csv, validate_schema
from heartstack.errors import DataError
from heartstack.schema import FEATURE_NAMES

HEADER = ",".join(FEATURE_NAMES) + ",target"
ROW = "57,1,4,130,236,0,1,140,1,1.2,2,1"
ROW0 = "44,0,2,120,220,0,0,160,0,0.0,1,0"


def make_csv(*rows, header=HEADER):
    return io.StringIO("\n".join([header, *rows]) + "\n")


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
