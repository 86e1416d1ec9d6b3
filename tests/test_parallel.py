"""Scheduling of fits: one run_tasks call per stage, shared arrays in the
tasks, and outputs that do not depend on the worker count."""

import json

import numpy as np
import pytest

import heartstack.model_selection as model_selection
import heartstack.stacking as stacking
from conftest import random_classification
from heartstack.cli import main
from heartstack.config import CANDIDATE_ORDER, load_config
from heartstack.learners import LearnerSpec
from heartstack.parallel import run_tasks
from heartstack.pipeline import prepare
from heartstack.synthetic import write_dataset_csv

MICRO = {"xgb_style": {"n_estimators": 3}, "extra_trees": {"n_estimators": 3},
         "random_forest": {"n_estimators": 3}, "gbm": {"n_estimators": 2},
         "mlp": {"epochs": 2}, "adaboost": {"n_estimators": 2},
         "linear_svc": {"epochs": 2}, "sgd_logistic": {"epochs": 2}}
# A staged grid, a one-dimensional grid and a two-dimensional one.
GRIDS = {"xgb_style": {"n_estimators": [1, 3]}, "knn": {"k": [3, 5]},
         "cart": {"max_depth": [2, 4], "min_samples_split": [2, 8]}}


@pytest.fixture(scope="module")
def micro_config(tmp_path_factory):
    work = tmp_path_factory.mktemp("micro")
    write_dataset_csv(work / "data.csv", seed=3)
    config = {"dataset": str(work / "data.csv"), "seed": 3, "folds": 3,
              "candidates": [{"algorithm": a, "hyperparameters": MICRO.get(a, {}),
                              **({"grid": GRIDS[a]} if a in GRIDS else {})}
                             for a in CANDIDATE_ORDER],
              "stacking": {"oof_folds": 3, "meta_hyperparameters": MICRO["sgd_logistic"]}}
    path = work / "config.json"
    path.write_text(json.dumps(config))
    return path


@pytest.fixture
def counted(monkeypatch):
    """Record the tasks of every run_tasks call the fit stages make."""
    calls = []

    def counting(fn, tasks, jobs=None):
        tasks = list(tasks)
        calls.append(tasks)
        return run_tasks(fn, tasks, jobs)

    monkeypatch.setattr(stacking, "run_tasks", counting)
    monkeypatch.setattr(model_selection, "run_tasks", counting)
    return calls


def _outputs(out):
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.is_file()}


def test_parallel_outputs_equal_sequential(micro_config, tmp_path, monkeypatch):
    outputs = {}
    for jobs in (1, 2, 3):
        monkeypatch.setenv("HEARTSTACK_JOBS", str(jobs))
        out = tmp_path / f"jobs{jobs}"
        for argv in (["train"], ["baseline", "--seeds", "2"]):
            assert main([*argv, "--config", str(micro_config), "--out", str(out)]) == 0
        outputs[jobs] = _outputs(out)
    assert set(outputs[1]) == {
        "models/stacked.model", "models/selection_report.json",
        "baseline/baseline_table.csv", "baseline/accuracy_comparison.csv",
        "baseline/grid_search_results.json", "baseline/seed_sweep.csv"}
    assert outputs[2] == outputs[1]
    assert outputs[3] == outputs[1]


@pytest.mark.parametrize("n_candidates", [2, 5])
def test_fit_stack_makes_two_calls(n_candidates, counted):
    rng = np.random.default_rng(3)
    X, y = random_classification(rng, 60, 3)
    algorithms = ["cart", "knn", "naive_bayes", "gbm", "adaboost"][:n_candidates]
    config = stacking.StackingConfig(
        candidates=tuple(LearnerSpec(a, MICRO.get(a, {}), seed=1) for a in algorithms),
        top_n=2, meta=LearnerSpec("sgd_logistic", {"epochs": 3}), oof_folds=4, seed=2)
    stacking.fit_stack(config, X, y)
    assert [len(tasks) for tasks in counted] == [n_candidates * 4, 2 + 1]
    oof_tasks = counted[0]
    assert all(task[1] is oof_tasks[0][1] and task[2] is oof_tasks[0][2] for task in oof_tasks)


@pytest.mark.parametrize("seeds, n_splits", [([], 1), (["--seeds", "3"], 3)])
def test_baseline_makes_one_call_per_stage(seeds, n_splits, micro_config, tmp_path, counted):
    assert main(["baseline", "--config", str(micro_config), "--out", str(tmp_path),
                 *seeds]) == 0
    n = len(CANDIDATE_ORDER)
    # 3 folds x (7 plain candidates, 1 staged fit, 2 knn points, 4 cart points),
    # then every candidate on each split, the table's split first.
    assert [len(tasks) for tasks in counted] == [3 * (7 + 1 + 2 + 4), n_splits * n]
    for tasks in counted:
        assert all(task[1] is tasks[0][1] for task in tasks)
    table_split = prepare(load_config(micro_config)).split
    for task in counted[1][:n]:
        assert np.array_equal(task[3], table_split.train_rows)
        assert np.array_equal(task[4], table_split.test_rows)


def test_run_tasks_keeps_task_order_without_pickling_tasks():
    # Workers inherit the tasks by forking, so neither the function nor the
    # tasks need to be picklable.
    tasks = [(i, lambda v: v * v) for i in range(7)]
    assert run_tasks(lambda task: task[1](task[0]), tasks, jobs=2) == [i * i for i in range(7)]
