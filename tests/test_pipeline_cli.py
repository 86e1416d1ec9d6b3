import json
from pathlib import Path

import numpy as np
import pytest

from heartstack import config as config_module
from heartstack.cli import main
from heartstack.config import config_from_dict, load_config, paper_default_config
from heartstack.learners import LearnerSpec, fit
from heartstack.model_store import load_model, save_model
from heartstack.pipeline import MODEL_FILE
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


@pytest.mark.parametrize("epoch", ["abc", "1.5", "99999999999999", "-99999999999999"])
def test_bad_source_date_epoch_is_config_error(epoch, dataset_csv, tmp_path, monkeypatch):
    # The stamp is read when the stack is saved, after every fit.
    config = {**fast_config(dataset_csv, tmp_path), "folds": 2,
              "candidates": [{"algorithm": "cart"}, {"algorithm": "naive_bayes"}],
              "stacking": {"top_n": 2, "meta_algorithm": "sgd_logistic",
                           "meta_hyperparameters": {"epochs": 5}, "oof_folds": 2}}
    (tmp_path / "config.json").write_text(json.dumps(config))
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    assert run(["train", "--config", tmp_path / "config.json"]) == 2


@pytest.mark.parametrize("fragment", [
    '"seed": "abc"',
    '"folds": "ten"',
    '"split_fraction": "most"',
    '"candidates": [{"algorithm": "cart", "seed": "abc"}]',
    '"seed": 1e400',
    '"cleaning": [1]',
    '"stacking": {"bogus": 1}',
    '"candidates": [{"algorithm": "nope"}]',
    '"candidates": [{"algorithm": "cart", "hyperparameters": {"bogus": 1}}]',
    '"seed": 1.9',
    '"folds": 2.7',
    '"seed": true',
    '"stacking": {"top_n": 2.5}',
    '"stacking": {"oof_folds": 2.5}',
    '"stacking": {"meta_hyperparameters": {"bogus": 1}}',
])
def test_malformed_config_value_is_config_error(fragment, tmp_path):
    config = tmp_path / "c.json"
    config.write_text('{"dataset": "%s", %s}' % (tmp_path / "d.csv", fragment))
    with pytest.raises(ConfigError):
        load_config(config)
    assert run(["analyze", "--config", config]) == 2


def test_unreadable_dataset_is_data_error(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"dataset": str(tmp_path / "missing.csv")}))
    code = run(["analyze", "--config", config])
    assert code != 0


@pytest.mark.parametrize("case, code", [
    ("train_on_non_utf8_csv", 3),
    ("analyze_non_utf8_csv", 3),
    ("predict_non_utf8_csv", 3),
    ("non_utf8_config", 2),
    ("predict_missing_model", 5),
    ("predict_model_is_a_directory", 5),
    ("evaluate_before_train", 5),
    ("out_is_a_file", 2),
    ("predict_output_is_a_directory", 2),
])
def test_unreadable_input_or_blocked_output_exits_with_its_category(case, code, dataset,
                                                                    dataset_csv, tmp_path):
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(b"age,sex\n60,1\n\xe9,0\n")
    model = tmp_path / "nb.model"
    save_model(fit(LearnerSpec("naive_bayes", {}), dataset.X, dataset.y), model)
    (tmp_path / "a_file").write_text("")
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"dataset": str(latin1), "out_dir": str(tmp_path / "out")}))
    if case == "non_utf8_config":
        config.write_bytes(b'{"dataset": "caf\xe9.csv"}')
    elif case in ("evaluate_before_train", "out_is_a_file"):
        config.write_text(json.dumps({"dataset": str(dataset_csv)}))

    def predict(model, input, output):
        return ["predict", "--model", model, "--input", input, "--output", output]

    argv = {
        "train_on_non_utf8_csv": ["train", "--config", config],
        "analyze_non_utf8_csv": ["analyze", "--config", config],
        "predict_non_utf8_csv": predict(model, latin1, tmp_path / "p.csv"),
        "non_utf8_config": ["analyze", "--config", config],
        "predict_missing_model": predict(tmp_path / "none.model", dataset_csv, tmp_path / "p.csv"),
        "predict_model_is_a_directory": predict(tmp_path, dataset_csv, tmp_path / "p.csv"),
        "evaluate_before_train": ["evaluate", "--config", config, "--out", tmp_path / "out"],
        "out_is_a_file": ["analyze", "--config", config, "--out", tmp_path / "a_file"],
        "predict_output_is_a_directory": predict(model, dataset_csv, tmp_path),
    }[case]
    assert run(argv) == code


def test_seed_flag_overrides_config(workspace, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run(["baseline", "--config", workspace["config"], "--seed", "7", "--out", out_a])
    run(["baseline", "--config", workspace["config"], "--seed", "7", "--out", out_b])
    table_a = (out_a / "baseline" / "baseline_table.csv").read_bytes()
    table_b = (out_b / "baseline" / "baseline_table.csv").read_bytes()
    assert table_a == table_b


def test_seed_flag_reaches_default_candidates(dataset_csv, tmp_path, monkeypatch):
    # Quick stand-ins for the default candidates, built from the seed they
    # are given, as the defaults are.
    quick = (("cart", {"max_depth": 3}), ("naive_bayes", {}), ("knn", {"k": 5}))
    monkeypatch.setattr(config_module, "default_candidates", lambda seed: tuple(
        config_module.CandidateConfig(LearnerSpec(a, h, seed)) for a, h in quick))
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "dataset": str(dataset_csv), "folds": 3,
        "stacking": {"top_n": 3, "meta_hyperparameters": {"epochs": 5}, "oof_folds": 3}}))
    assert run(["train", "--config", config, "--seed", "7", "--out", tmp_path / "out"]) == 0
    model = load_model(tmp_path / "out" / "models" / MODEL_FILE)
    assert {b.spec.seed for b in model.bases} == {7}
    assert {spec.seed for spec, _ in model.selection.entries} == {7}
    assert model.meta.spec.seed == 7


def test_seed_override_reaches_listed_candidates_without_their_own(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"dataset": "x.csv", "seed": 3, "stacking": {"top_n": 2},
                                  "candidates": [{"algorithm": "cart"},
                                                 {"algorithm": "knn", "seed": 11}]}))
    assert [c.spec.seed for c in load_config(config).candidates] == [3, 11]
    overridden = load_config(config, {"seed": 7, "out_dir": "o"})
    assert [c.spec.seed for c in overridden.candidates] == [7, 11]
    assert (overridden.seed, overridden.out_dir) == (7, "o")


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
