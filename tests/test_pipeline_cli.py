import json
from pathlib import Path

import numpy as np
import pytest

from heartstack.cli import main
from heartstack.config import config_from_dict, load_config, paper_default_config
from heartstack.errors import ConfigError
from heartstack.reporting import read_csv, read_json
from heartstack.schema import FEATURE_NAMES

# Scaled-down settings keep pipeline tests quick; the acceptance suite runs
# the full defaults.
FAST_CANDIDATES = [
    {"algorithm": "xgb_style", "hyperparameters": {"n_estimators": 12},
     "grid": {"n_estimators": [4, 12]}},
    {"algorithm": "random_forest", "hyperparameters": {"n_estimators": 12}},
    {"algorithm": "cart", "hyperparameters": {}},
    {"algorithm": "naive_bayes", "hyperparameters": {}},
    {"algorithm": "knn", "hyperparameters": {"k": 5}},
]


def fast_config(dataset_csv, out_dir, seed=101):
    return {
        "dataset": str(dataset_csv),
        "out_dir": str(out_dir),
        "seed": seed,
        "split_fraction": 0.8,
        "folds": 4,
        "cleaning": {"strategy": "iqr", "iqr_k": 1.5},
        "candidates": FAST_CANDIDATES,
        "stacking": {"top_n": 3, "meta_algorithm": "sgd_logistic",
                     "meta_hyperparameters": {"epochs": 20}, "oof_folds": 4},
    }


@pytest.fixture(scope="module")
def workspace(dataset_csv, tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    config_path = root / "config.json"
    out_dir = root / "out"
    config_path.write_text(json.dumps(fast_config(dataset_csv, out_dir)))
    return {"config": config_path, "out": out_dir, "dataset": dataset_csv}


def run(argv):
    return main([str(a) for a in argv])


def test_analyze_writes_reports(workspace):
    assert run(["analyze", "--config", workspace["config"]]) == 0
    out = workspace["out"] / "analysis"
    validation = read_json(out / "validation.json")
    assert validation["valid"] is True
    correlation = read_json(out / "correlation.json")
    assert set(correlation["with_target"]["entries"]) == set(FEATURE_NAMES)
    matrix = correlation["matrix"]
    assert matrix["st_slope"]["target"] == matrix["target"]["st_slope"]
    assert matrix["age"]["age"] == 1.0
    summary = read_json(out / "summary.json")
    assert sum(summary["class_counts"].values()) == validation["n_rows"]
    # every emitted table parses through our own reader
    for csv_file in out.glob("*.csv"):
        comments, header, rows = read_csv(csv_file)
        assert header and rows


def test_analyze_deterministic_bytes(workspace, tmp_path):
    run(["analyze", "--config", workspace["config"]])
    first = {p.name: p.read_bytes() for p in (workspace["out"] / "analysis").iterdir()}
    run(["analyze", "--config", workspace["config"]])
    second = {p.name: p.read_bytes() for p in (workspace["out"] / "analysis").iterdir()}
    assert first == second


def test_baseline_table_shape(workspace):
    assert run(["baseline", "--config", workspace["config"]]) == 0
    comments, header, rows = read_csv(workspace["out"] / "baseline" / "baseline_table.csv")
    assert header[:3] == ["algorithm", "cv_mean_accuracy", "test_accuracy"]
    assert len(rows) == len(FAST_CANDIDATES)
    accs = [float(r[2]) for r in rows]
    assert accs == sorted(accs, reverse=True)
    grid_results = read_json(workspace["out"] / "baseline" / "grid_search_results.json")
    assert "xgb_style" in grid_results


def test_train_then_evaluate_and_predict(workspace):
    assert run(["train", "--config", workspace["config"]]) == 0
    model_path = workspace["out"] / "models" / "stacked.model"
    assert model_path.exists()
    selection = read_json(workspace["out"] / "models" / "selection_report.json")
    assert len(selection["selected"]) == 3

    assert run(["evaluate", "--config", workspace["config"]]) == 0
    out = workspace["out"] / "evaluation"
    comments, header, rows = read_csv(out / "metrics_table.csv")
    assert header[0] == "model"
    assert rows[0][0] == "stacked" or any(r[0] == "stacked" for r in rows)
    assert len(rows) == 4  # stack + three bases
    lit = read_csv(out / "literature_comparison.csv")[2]
    assert len(lit) == 10

    roc_comments, roc_header, roc_rows = read_csv(out / "roc_stacked.csv")
    assert roc_header == ["fpr", "tpr"]
    assert roc_comments and roc_comments[0].startswith("area")
    pts = np.array([[float(a), float(b)] for a, b in roc_rows])
    assert (np.diff(pts[:, 0]) >= 0).all() and (np.diff(pts[:, 1]) >= 0).all()

    predictions = workspace["out"] / "predictions.csv"
    assert run(["predict", "--model", model_path, "--input", workspace["dataset"],
                "--output", predictions]) == 0
    comments, header, rows = read_csv(predictions)
    assert header == ["row", "probability", "label"]
    probs = np.array([float(r[1]) for r in rows])
    assert ((probs >= 0) & (probs <= 1)).all()
    assert any(c.startswith("accuracy") for c in comments)  # target present -> metric record


def test_predict_missing_column_is_schema_error(workspace, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("age,sex\n60,1\n")
    model_path = workspace["out"] / "models" / "stacked.model"
    code = run(["predict", "--model", model_path, "--input", bad,
                "--output", tmp_path / "p.csv"])
    assert code == 3  # data error exit code


def test_missing_config_is_config_error(tmp_path):
    assert run(["analyze", "--config", tmp_path / "nope.json"]) == 2


def test_non_integer_jobs_is_config_error(workspace, tmp_path, monkeypatch):
    monkeypatch.setenv("HEARTSTACK_JOBS", "abc")
    assert run(["train", "--config", workspace["config"], "--out", tmp_path]) == 2


def test_unreadable_dataset_is_data_error(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"dataset": str(tmp_path / "missing.csv")}))
    code = run(["analyze", "--config", config])
    assert code != 0


def test_seed_flag_overrides_config(workspace, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run(["baseline", "--config", workspace["config"], "--seed", "7", "--out", out_a])
    run(["baseline", "--config", workspace["config"], "--seed", "7", "--out", out_b])
    table_a = (out_a / "baseline" / "baseline_table.csv").read_bytes()
    table_b = (out_b / "baseline" / "baseline_table.csv").read_bytes()
    assert table_a == table_b


def test_config_validation():
    with pytest.raises(ConfigError):
        config_from_dict({})
    with pytest.raises(ConfigError):
        config_from_dict({"dataset": "x.csv", "bogus": 1})
    with pytest.raises(ConfigError):
        config_from_dict({"dataset": "x.csv", "split_fraction": 1.4})
    config = paper_default_config("x.csv")
    assert config.folds == 10
    assert config.stacking.top_n == 4
    assert [c.spec.algorithm for c in config.candidates][:3] == [
        "xgb_style", "extra_trees", "random_forest"]
    assert config.candidates[0].grid == {"n_estimators": [100, 500, 1000, 2000]}
