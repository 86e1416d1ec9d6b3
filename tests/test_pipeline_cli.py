import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import heartstack
from heartstack import cli as cli_module
from heartstack import config as config_module
from heartstack.cli import main
from heartstack.config import config_from_dict, load_config, paper_default_config
from heartstack.dataset import parse_feature_csv
from heartstack.learners import LearnerSpec, fit
from heartstack.metrics import confusion_matrix, metric_report
from heartstack.model_selection import grid_specs
from heartstack.model_store import load_model, save_model
from heartstack.pipeline import MODEL_FILE
from heartstack.errors import ConfigError
from heartstack.reporting import format_csv, read_csv, read_json
from heartstack.schema import FEATURE_NAMES
from heartstack.stacking import StackingConfig, fit_stack

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


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_baseline_seeds_below_one_is_config_error(seeds, workspace, tmp_path, capsys):
    assert run(["baseline", "--config", workspace["config"], "--out", tmp_path,
                "--seeds", seeds]) == 2
    assert "--seeds" in capsys.readouterr().err
    assert not (tmp_path / "baseline").exists()


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


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_config_error(jobs, workspace, tmp_path, monkeypatch):
    monkeypatch.setenv("HEARTSTACK_JOBS", jobs)
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the meta's weights overflow
def test_train_that_diverges_exits_as_a_fit_error_and_writes_no_model(dataset_csv, tmp_path):
    config = {**fast_config(dataset_csv, tmp_path), "folds": 2,
              "candidates": [{"algorithm": "cart"}, {"algorithm": "naive_bayes"}],
              "stacking": {"top_n": 2, "meta_algorithm": "sgd_logistic",
                           "meta_hyperparameters": {"epochs": 5, "learning_rate": 1e99},
                           "oof_folds": 2}}
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert run(["train", "--config", tmp_path / "config.json"]) == 6
    assert not (tmp_path / "models" / MODEL_FILE).exists()


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
    '"cleaning": {"iqr_k": NaN}',
    '"cleaning": {"iqr_k": Infinity}',
    '"cleaning": {"iqr_k": true}',
    '"stacking": {"meta_hyperparameters": {"learning_rate": "fast"}}',
    '"stacking": {"meta_hyperparameters": [["epochs", 5]]}',
    '"stacking": {"meta_hyperparameters": []}',
    '"stacking": [["top_n", 1]]',
    '"candidates": [{"algorithm": "gbm", "hyperparameters": {"learning_rate": -1}}]',
    '"candidates": [{"algorithm": "naive_bayes", "hyperparameters": {"var_floor": 1e-101}}]',
    '"candidates": [{"algorithm": "knn", "hyperparameters": [["k", 3]]}]',
    '"candidates": [{"algorithm": "knn", "hyperparameters": []}]',
    '"candidates": [{"algorithm": "knn", "hyperparameters": {"k": true}}]',
    '"candidates": [{"algorithm": "knn", "hyperparams": {"k": 3}}]',
    '"candidates": [{"algorithm": "knn", "grid": {"k": [0, "a"]}}]',
    '"candidates": [{"algorithm": "knn", "grid": {"bogus": [1]}}]',
    '"candidates": [{"algorithm": "knn", "grid": {}}]',
    '"candidates": [{"algorithm": "knn", "grid": {"k": []}}]',
    '"candidates": [{"algorithm": "xgb_style", "grid": {"n_estimators": [100, 2.5]}}]',
    '"dataset": 5',
    '"out_dir": ["a"]',
    '"candidates": []',
    '"candidates": {}',
    '"candidates": [{"algorithm": "knn"}, {"algorithm": "cart"}, {"algorithm": "knn", "seed": 2}]',
    pytest.param('"seed": ' + "1" * 5000, id="seed_of_5000_digits"),
    pytest.param('"cleaning": ' + "[" * 100_000 + "]" * 100_000, id="nested_too_deep"),
])
def test_malformed_config_value_is_config_error(fragment, tmp_path):
    # top_n 1 lets a one-candidate fragment fail for its own fault; a
    # fragment's own "stacking" key comes later and replaces it.
    config = tmp_path / "c.json"
    config.write_text('{"dataset": "%s", "stacking": {"top_n": 1}, %s}'
                      % (tmp_path / "d.csv", fragment))
    with pytest.raises(ConfigError):
        load_config(config)
    assert run(["analyze", "--config", config]) == 2


VALID_CONFIG = {
    "dataset": "d.csv", "out_dir": "out", "seed": 3, "split_fraction": 0.8, "folds": 3,
    "cleaning": {"strategy": "iqr", "iqr_k": 1.5},
    "candidates": [
        {"algorithm": "xgb_style", "hyperparameters": {"learning_rate": 0.3, "gamma": 0.0},
         "grid": {"n_estimators": [5, 10]}},
        {"algorithm": "random_forest", "seed": 4,
         "hyperparameters": {"max_features": "sqrt", "criterion": "gini", "max_depth": None}},
        {"algorithm": "knn", "grid": {"k": [3, 5]}},
        {"algorithm": "mlp", "hyperparameters": {"hidden_units": 4, "momentum": 0.5}},
        {"algorithm": "naive_bayes", "hyperparameters": {"var_floor": 1e-9}},
        {"algorithm": "cart", "grid": {"min_samples_split": [2, 4], "max_features": [None, 2]}},
    ],
    "stacking": {"top_n": 2, "meta_algorithm": "sgd_logistic",
                 "meta_hyperparameters": {"epochs": 5, "l2": 0.0}, "oof_folds": 3},
}
HOSTILE_VALUES = st.one_of(
    st.sampled_from([True, False, None, 0, -1, 1, 2, 2.5, -0.0, 1e100, 1e101, 10**30, "",
                     "sqrt", "gini", "sgd_logistic", [], {}, [1, 2], [["k", 3]], {"k": [3]}]),
    st.integers(-2**63, 2**63), st.floats(), st.text(max_size=3))
ADDED_KEYS = ("bogus", "k", "n_estimators", "learning_rate", "momentum", "seed", "grid", "top_n")
INT_RULES = {"n_estimators": 1, "max_depth": 1, "max_features": 1, "min_samples_split": 2,
             "k": 1, "epochs": 1, "hidden_units": 1}


def admissible(name: str, value) -> bool:
    """The hyperparameter rules, stated apart from learners/base.py."""
    if value is None and name in ("max_depth", "max_features") or (name, value) == (
            "max_features", "sqrt"):
        return True
    if name == "criterion":
        return value in ("gini", "entropy")
    if name in INT_RULES:
        return type(value) is int and value >= INT_RULES[name]
    if not (type(value) in (int, float) and abs(value) <= 1e100):
        return False
    if name == "momentum":
        return 0 <= value < 1
    if name == "var_floor":
        return value >= 1e-100
    return value > 0 if name == "learning_rate" else value >= 0


def tree_paths(node, path=()):
    """The path of every value in a JSON tree, the root's () first."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from tree_paths(child, path + (key,))


def hostile_config(data) -> dict:
    """VALID_CONFIG with one to three mutations drawn from ``data``: a value
    replaced by a hostile one (wrong types, bools, negatives, NaN, infinities
    and huge numbers), a key or list entry dropped, a key added to an object,
    an entry appended to a list (odd grids) or an object or list emptied."""
    config = json.loads(json.dumps(VALID_CONFIG))
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(tree_paths(config))))
        parent = config
        for key in path[:-1]:
            parent = parent[key]
        node = parent[path[-1]] if path else config
        kind = data.draw(st.sampled_from(["replace", "replace", "drop", "add", "append",
                                          "empty"]))
        if kind == "replace" and path:
            parent[path[-1]] = data.draw(HOSTILE_VALUES)
        elif kind == "drop" and path:
            del parent[path[-1]]
        elif kind == "add" and isinstance(node, dict):
            node[data.draw(st.sampled_from(ADDED_KEYS))] = data.draw(HOSTILE_VALUES)
        elif kind == "append" and isinstance(node, list):
            node.append(data.draw(HOSTILE_VALUES))
        elif kind == "empty" and isinstance(node, (dict, list)):
            node.clear()
    return config


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_hostile_configs_fail_at_load_or_resolve(data, tmp_path):
    # load_config checks the whole config, so it either raises ConfigError
    # or returns one whose every spec and grid point holds valid values.
    path = tmp_path / "c.json"
    path.write_text(json.dumps(hostile_config(data)))
    try:
        config = load_config(path)
    except ConfigError:
        return
    specs = [config.stacking.meta]
    for candidate in config.candidates:
        specs += grid_specs(candidate.spec, candidate.grid)
    for spec in specs:
        assert type(spec.seed) is int and spec.seed >= 0
        assert all(admissible(name, value) for name, value in spec.resolved().items())
    algorithms = [candidate.spec.algorithm for candidate in config.candidates]
    assert len(set(algorithms)) == len(algorithms)
    stacking = config.stacking
    assert type(stacking.top_n) is int and 1 <= stacking.top_n <= len(config.candidates)
    assert type(stacking.oof_folds) is int and stacking.oof_folds >= 2


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
    ("train_without_config", 2),
    ("config_is_a_directory", 2),
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
        "train_without_config": ["train"],
        "config_is_a_directory": ["analyze", "--config", tmp_path],
    }[case]
    assert run(argv) == code


@pytest.mark.parametrize("command, blocked", [
    ("train", "models/stacked.model"),
    ("analyze", "analysis/validation.json"),
    ("baseline", "baseline/baseline_table.csv"),
    ("evaluate", "evaluation/metrics_table.csv"),
])
def test_blocked_output_file_exits_with_config_error_naming_it(command, blocked, dataset_csv,
                                                               micro_stack, tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps(dict(
        fast_config(dataset_csv, tmp_path / "out"), folds=2,
        candidates=[{"algorithm": "cart", "hyperparameters": {"max_depth": 3}},
                    {"algorithm": "naive_bayes", "hyperparameters": {}}],
        stacking={"top_n": 2, "meta_hyperparameters": {"epochs": 5}, "oof_folds": 2})))
    (tmp_path / "out" / blocked).mkdir(parents=True)
    argv = [command, "--config", config]
    if command == "evaluate":
        argv += ["--model", micro_stack / "stack.model"]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert f"error[config]: cannot write {tmp_path / 'out' / blocked}: " in err


def test_train_names_the_row_and_column_of_a_code_outside_the_schema(dataset_csv, tmp_path,
                                                                    capsys):
    data = tmp_path / "d.csv"
    data.write_text(with_cells(dataset_csv.read_text(), {"sex": "2"}, rows=[6]))
    config = tmp_path / "c.json"
    config.write_text(json.dumps(fast_config(data, tmp_path / "out")))
    assert run(["train", "--config", config]) == 3
    assert f"{data}: row 7, column 'sex': code 2 is not one of [0, 1]" in capsys.readouterr().err


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


# One small base of every algorithm, so that a scored input reaches every
# kind of model.
MICRO_BASES = (LearnerSpec("cart", {"max_depth": 3}),
               LearnerSpec("random_forest", {"n_estimators": 3}),
               LearnerSpec("extra_trees", {"n_estimators": 3}),
               LearnerSpec("gbm", {"n_estimators": 3}), LearnerSpec("xgb_style", {"n_estimators": 3}),
               LearnerSpec("adaboost", {"n_estimators": 3}), LearnerSpec("knn", {"k": 3}),
               LearnerSpec("naive_bayes"), LearnerSpec("sgd_logistic", {"epochs": 5}),
               LearnerSpec("linear_svc", {"epochs": 5}), LearnerSpec("mlp", {"epochs": 5}))


@pytest.fixture(scope="module")
def micro_stack(dataset, dataset_csv, tmp_path_factory):
    """A directory with a saved stack over MICRO_BASES, fitted on 300 rows,
    and a predict input of eight rows with their targets."""
    root = tmp_path_factory.mktemp("micro_stack")
    config = StackingConfig(candidates=MICRO_BASES, top_n=len(MICRO_BASES),
                            meta=LearnerSpec("sgd_logistic", {"epochs": 5}), oof_folds=2, seed=3)
    model = fit_stack(config, dataset.X[:300], dataset.y[:300])
    (root / "stack.model").write_bytes(save_model(model))
    (root / "input.csv").write_text("\n".join(dataset_csv.read_text().splitlines()[:9]) + "\n")
    return root


def predict_bytes(root, data: bytes) -> tuple[int, list[float]]:
    """heartstack predict's exit code on a CSV of these bytes, and the
    probabilities it wrote."""
    (root / "hostile.csv").write_bytes(data)
    out = root / "p.csv"
    out.unlink(missing_ok=True)
    code = run(["predict", "--model", root / "stack.model", "--input", root / "hostile.csv",
                "--output", out])
    return code, [float(r[1]) for r in read_csv(out)[2]] if code == 0 else []


def with_cells(text: str, values: dict[str, str], rows=None) -> str:
    """The CSV text with the named columns set to the given cells, in every
    data row or in the listed ones (0-based)."""
    lines = text.splitlines()
    header = lines[0].split(",")
    for i in range(len(lines) - 1) if rows is None else rows:
        cells = lines[i + 1].split(",")
        for name, value in values.items():
            cells[header.index(name)] = value
        lines[i + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value, code", [("1e160", 3), ("-1e160", 3), ("1e308", 3),
                                         ("1e100", 0), ("-1e100", 0)])
def test_predict_takes_feature_values_up_to_the_parameter_bound(value, code, micro_stack):
    text = with_cells((micro_stack / "input.csv").read_text(),
                      {"cholesterol": value, "age": value})
    got, proba = predict_bytes(micro_stack, text.encode("utf8"))
    assert got == code
    assert len(proba) == (8 if code == 0 else 0) and np.isfinite(proba).all()


@pytest.mark.parametrize("values, rows, where", [
    ({"sex": "7", "chest_pain_type": "-3"}, [2], "row 3, column 'sex': code 7 "),
    ({"chest_pain_type": "-3"}, [4, 1], "row 2, column 'chest_pain_type': code -3 "),
    ({"rest_ecg": "1e19"}, [0], "row 1, column 'rest_ecg': code 1e+19 "),
    ({"st_slope": "4", "target": "2"}, [5], "row 6, column 'st_slope'"),
    ({"target": "2"}, [6], "row 7, column 'target': code 2 "),
])
def test_predict_rejects_codes_outside_the_schema(values, rows, where, micro_stack, capsys):
    text = with_cells((micro_stack / "input.csv").read_text(), values, rows=rows)
    assert predict_bytes(micro_stack, text.encode("utf8")) == (3, [])
    assert where in capsys.readouterr().err


def test_predict_takes_st_slope_code_zero(micro_stack):
    text = with_cells((micro_stack / "input.csv").read_text(), {"st_slope": "0"}, rows=[0])
    code, proba = predict_bytes(micro_stack, text.encode("utf8"))
    assert code == 0 and len(proba) == 8


def reference_predict_text(model_path, input_csv) -> str:
    """The predictions file as written per row through format_csv, with
    the metric lines appended when the input has targets."""
    model = load_model(model_path)
    X, y = parse_feature_csv(input_csv)
    proba = model.predict_proba(X)
    labels = (proba >= 0.5).astype(np.int64)
    rows = [[i, repr(float(p)), int(label)] for i, (p, label) in enumerate(zip(proba, labels))]
    text = format_csv(["row", "probability", "label"], rows)
    if y is not None:
        report = metric_report(confusion_matrix(y, labels))
        text += "\n".join(f"# {name} {'-' if value is None else repr(value)}"
                          for name, value in report.to_dict().items() if name != "undefined")
        text += "\n"
    return text


@pytest.mark.parametrize("with_target", [True, False])
def test_predictions_file_equals_per_row_csv_writer(with_target, micro_stack, dataset_csv):
    lines = dataset_csv.read_text().splitlines()
    if not with_target:
        lines = [line[:line.rindex(",")] for line in lines]
    path = micro_stack / "big.csv"
    path.write_text("\n".join(lines[:1] + [lines[1 + i % (len(lines) - 1)]
                                           for i in range(4096)]) + "\n")
    out = micro_stack / "big_predictions.csv"
    assert run(["predict", "--model", micro_stack / "stack.model", "--input", path,
                "--output", out]) == 0
    assert out.read_bytes() == reference_predict_text(micro_stack / "stack.model",
                                                      path).encode("utf8")


# Modules a predict request never uses: hashlib loads OpenSSL, and
# multiprocessing and numpy.random serve only fits.
NOT_IN_PREDICT = ("hashlib", "_hashlib", "multiprocessing", "numpy.random")
PREDICT_PROCESS = """
import json, sys
from heartstack.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, [name for name in %r if name in sys.modules]]))
""" % (NOT_IN_PREDICT,)


def test_predict_process_loads_no_module_it_does_not_use(micro_stack):
    src = str(Path(heartstack.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", PREDICT_PROCESS, "predict", "--model", str(micro_stack / "stack.model"),
         "--input", str(micro_stack / "input.csv"), "--output", str(micro_stack / "fresh.csv")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, []]


def test_parser_is_built_once_per_process():
    assert cli_module._build_parser() is cli_module._build_parser()


@pytest.fixture(scope="module")
def micro_train(dataset_csv, tmp_path_factory):
    """A directory with a train config of two quick candidates and two
    folds that reads hostile.csv there."""
    root = tmp_path_factory.mktemp("micro_train")
    config = dict(fast_config(root / "hostile.csv", root / "out"), folds=2,
                  candidates=[{"algorithm": "cart", "hyperparameters": {"max_depth": 3}},
                              {"algorithm": "naive_bayes", "hyperparameters": {}}])
    config["stacking"] = dict(config["stacking"], top_n=2, oof_folds=2)
    (root / "c.json").write_text(json.dumps(config))
    return root


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value, code", [("1e160", 3), ("1e100", 0)])
def test_train_takes_feature_values_up_to_the_parameter_bound(value, code, dataset_csv,
                                                              micro_train):
    (micro_train / "hostile.csv").write_text(
        with_cells(dataset_csv.read_text(), {"cholesterol": value, "age": value}, rows=[0]))
    assert run(["train", "--config", micro_train / "c.json"]) == code


# Feature cells that parse in every column, up to the parameter bound, and
# cells that do not parse, are not finite or lie beyond the bound or, as a
# target, beyond the integer range.
BIG_CELLS = ("1e100", "-1e100", "1e99", "1e19", "-9223372036854775809", "-0", " 7 ", "1_0")
ODD_CELLS = ("", "x", "nan", "inf", "-inf", "1e400", "1e308", "-1e160", "0.5", '"1', "\x00")
NON_UTF8 = (b"\xff", b"\xe9", b"\xc3", b"\x80", b"\xed\xa0\x80")


def hostile_csv(data, text: str) -> bytes:
    """One to three mutations of a CSV's text, drawn from ``data``: a
    feature cell set to a big value (BIG_CELLS), any cell set to an odd one
    (ODD_CELLS or BIG_CELLS), dropped or added, the text cut short after
    some cell, or a non-UTF-8 sequence spliced into its bytes."""
    rows = [line.split(",") for line in text.splitlines()]
    features = [i for i, name in enumerate(rows[0]) if name in FEATURE_NAMES]
    splice = False
    kinds = data.draw(st.lists(st.sampled_from(["big", "big", "big", "odd", "drop", "extra",
                                                "cut", "bytes"]), min_size=1, max_size=3))
    for kind in sorted(kinds, key=lambda k: k != "big"):  # big cells go into intact rows
        if kind == "big":
            cells = rows[data.draw(st.integers(1, len(rows) - 1))]
            cells[data.draw(st.sampled_from(features))] = data.draw(st.sampled_from(BIG_CELLS))
            continue
        i = data.draw(st.integers(0, len(rows) - 1))
        cells = rows[i]
        at = data.draw(st.integers(0, len(cells) - 1)) if cells else 0
        if kind == "odd" and cells:
            cells[at] = data.draw(st.sampled_from(ODD_CELLS + BIG_CELLS))
        elif kind == "drop" and cells:
            del cells[at]
        elif kind == "extra":
            cells.insert(at, data.draw(st.sampled_from(ODD_CELLS + ("1",))))
        elif kind == "cut":
            rows = rows[:i + 1]
            del cells[at + 1:]
        splice |= kind == "bytes"
    raw = ("\n".join(",".join(r) for r in rows) + "\n").encode("utf8")
    if splice:
        at = data.draw(st.integers(0, len(raw)))
        raw = raw[:at] + data.draw(st.sampled_from(NON_UTF8)) + raw[at:]
    return raw


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_hostile_csvs_never_escape_predict(data, micro_stack):
    # Only a HeartstackError may leave main, and the model and output are
    # sound, so a hostile input is a data error; a scored one is finite.
    code, proba = predict_bytes(micro_stack, hostile_csv(data, (micro_stack / "input.csv")
                                                         .read_text()))
    assert code in (0, 3)
    assert np.isfinite(proba).all() and all(0.0 <= p <= 1.0 for p in proba)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_hostile_csvs_never_escape_train(data, micro_train, dataset_csv):
    (micro_train / "hostile.csv").write_bytes(hostile_csv(data, dataset_csv.read_text()))
    assert run(["train", "--config", micro_train / "c.json"]) in (0, 3)
