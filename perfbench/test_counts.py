"""Self-checks of the benchmark's tracing.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_counts.py

The exact counts (document bytes, fit calls, tree grows and applies, pools)
must repeat between runs of one commit, and the spans of forked workers
must not be lost: a traced run at HEARTSTACK_JOBS=2 counts the same work
as one at HEARTSTACK_JOBS=1. A micro config keeps every layer on the path
while each command takes well under a second.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from heartstack.cli import main as heartstack_main  # noqa: E402
from heartstack.config import CANDIDATE_ORDER  # noqa: E402
from heartstack.synthetic import write_dataset_csv  # noqa: E402
from tracer import EXACT_COUNTS, LAYER_METRICS, Tracer, layer_metrics, layer_unit  # noqa: E402

MICRO = {"xgb_style": {"n_estimators": 3}, "extra_trees": {"n_estimators": 3},
         "random_forest": {"n_estimators": 3}, "gbm": {"n_estimators": 2},
         "mlp": {"epochs": 2}, "adaboost": {"n_estimators": 2},
         "linear_svc": {"epochs": 2}, "sgd_logistic": {"epochs": 2}}
GRIDS = {"xgb_style": {"n_estimators": [1, 3]}, "knn": {"k": [3, 5]}}


@pytest.fixture(scope="module")
def micro_config(tmp_path_factory):
    work = tmp_path_factory.mktemp("micro")
    write_dataset_csv(work / "data.csv", seed=3)
    config = {"dataset": str(work / "data.csv"), "seed": 3, "folds": 3,
              "candidates": [{"algorithm": a, "hyperparameters": MICRO.get(a, {}),
                              **({"grid": GRIDS[a]} if a in GRIDS else {})}
                             for a in CANDIDATE_ORDER],
              "stacking": {"oof_folds": 3, "meta_hyperparameters": MICRO["sgd_logistic"]}}
    (work / "config.json").write_text(json.dumps(config))
    (work / "query.csv").write_text(
        "\n".join(line.rsplit(",", 1)[0]
                  for line in (work / "data.csv").read_text().splitlines()[:50]) + "\n")
    return work


def _traced_counts(work: Path, monkeypatch, jobs: int, repeats: int) -> list[dict]:
    """Exact counts per repetition of train, baseline and predict."""
    monkeypatch.setenv("HEARTSTACK_JOBS", str(jobs))
    cfg = str(work / "config.json")
    out = work / f"out{jobs}"
    commands = [["train", "--config", cfg, "--out", str(out)],
                ["baseline", "--config", cfg, "--out", str(out)],
                ["predict", "--model", str(out / "models" / "stacked.model"),
                 "--input", str(work / "query.csv"), "--output", str(out / "p.csv")]]
    tracer = Tracer()
    op = 0
    for _ in range(repeats):
        for argv in commands:
            with tracer.installed(), tracer.operation(op, argv[0]):
                assert heartstack_main(argv) == 0
            op += 1
    counts = []
    for first in range(0, op, len(commands)):
        ops = range(first, first + len(commands))
        metrics = layer_metrics([s for s in tracer.spans if s[2] in ops], [0.0], [0.0])
        counts.append({k: metrics[k] * len(commands) for k in EXACT_COUNTS})
    return counts


# Fits the micro config makes: train 10 candidates x 3 OOF folds, 4 refits
# and the meta; baseline 3 folds x (8 plain candidates, 2 knn grid points,
# 1 staged xgb_style fit) and 10 test-split fits; predict none.
EXPECTED_FITS = 10 * 3 + 4 + 1 + 3 * (8 + 2 + 1) + 10


def test_counts_repeat_exactly_and_survive_forking(micro_config, monkeypatch):
    forked = _traced_counts(micro_config, monkeypatch, jobs=2, repeats=2)
    assert sum(v for k, v in forked[0].items() if k.startswith("learners.fit.")) == EXPECTED_FITS
    assert forked[0] == forked[1]
    assert forked[0]["parallel.pools"] > 0
    assert forked[0]["tree.grows"] > 0 and forked[0]["model_store.doc_bytes"] > 0
    sequential = _traced_counts(micro_config, monkeypatch, jobs=1, repeats=1)[0]
    assert sequential["parallel.pools"] == 0
    assert {**sequential, "parallel.pools": None} == {**forked[0], "parallel.pools": None}


def test_tracing_leaves_the_program_unpatched():
    import heartstack.stacking as stacking
    from heartstack.learners import TrainedModel, fit

    before = (stacking.fit, stacking.run_tasks, TrainedModel.predict_proba)
    with Tracer().installed():
        assert stacking.fit is not fit
    assert (stacking.fit, stacking.run_tasks, TrainedModel.predict_proba) == before


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, layer_unit(name)) for name in LAYER_METRICS]
    assert [m["name"] for m in spec["end_to_end"]] == ["op_p50_s", "rows_per_s", "setup_s",
                                                       "peak_rss_mb"]
