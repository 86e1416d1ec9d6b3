"""The benchmark's three workloads: inputs, set-up and the timed loop.

Every operation goes through the public entry point ``heartstack.cli.main``,
in-process, with one client in a closed loop. The program sees only the
generated files: a dataset CSV, a config file, query CSVs and (for
``predict``) a saved stack.

Run as a script, this module is a child process the benchmark times:

    python3 perfbench/workloads.py setup <workload> <seed> <work>
    python3 perfbench/workloads.py build <work>
    python3 perfbench/workloads.py run <workload> <work> <seconds> <trace>

Each set-up runs in a fresh process because the generator caches datasets
in memory, so a repeat in one process would not redo the work.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from heartstack.cli import main as heartstack_main
from heartstack.config import CANDIDATE_ORDER, load_config
from heartstack.learners import LearnerSpec, fit
from heartstack.model_selection import k_fold_plan
from heartstack.model_store import save_model
from heartstack.parallel import run_tasks
from heartstack.pipeline import MODEL_FILE, prepare
from heartstack.stacking import StackedModel, select_base_learners
from heartstack.synthetic import write_dataset_csv
from tracer import Tracer, layer_metrics, self_times

# train and tune run every iterative learner at one twentieth of its
# default size (trees, boosting stages, epochs), so that one operation takes
# seconds, not minutes, and a run holds enough of them for a steady median;
# the algorithms, the 10 folds and the 940x11 train shape stay the study's.
SCALED = {
    "xgb_style": {"n_estimators": 25},
    "extra_trees": {"n_estimators": 25},
    "random_forest": {"n_estimators": 25},
    "gbm": {"n_estimators": 5},
    "mlp": {"epochs": 25},
    "adaboost": {"n_estimators": 3},
    "linear_svc": {"epochs": 10},
    "sgd_logistic": {"epochs": 10},
}
TUNE_GRIDS = {"xgb_style": {"n_estimators": [5, 25, 50, 100]},
              "knn": {"k": [3, 5, 7, 9, 11]}}
# predict's stack is the default run's four selected bases and meta at one
# tenth of default size: large enough that loading and tree scoring, not
# k-NN, take most of a request, as they do at default sizes.
PREDICT_BASES = {"xgb_style": {"n_estimators": 50}, "extra_trees": {"n_estimators": 50},
                 "random_forest": {"n_estimators": 50}, "knn": {}}
PREDICT_META = {"epochs": 20}

# One patient, the test-split size and a clinic batch.
QUERY_SIZES = (1, 235, 4096)
MIN_CYCLES = 2


def setup(workload: str, seed: int, work: Path) -> None:
    """Write the workload's input files into ``work``; deterministic in seed.

    The dataset is always the study's stand-in table (the generator's
    default data seed); the seed varies the config seed, which drives the
    split, the fold plans and every learner's random streams, and the
    query rows. Data from other generator seeds grows trees of other sizes:
    on seeds 1-5 a default-size predict document varied by 9% and request
    latency with it, against 0.4% when only the config seed varies.
    """
    data = work / "data.csv"
    write_dataset_csv(data)
    config = {"dataset": str(data), "out_dir": str(work / "out"), "seed": seed}
    if workload == "train":
        config["candidates"] = [{"algorithm": a, "hyperparameters": SCALED.get(a, {})}
                                for a in CANDIDATE_ORDER]
        config["stacking"] = {"meta_hyperparameters": SCALED["sgd_logistic"]}
    elif workload == "tune":
        config["candidates"] = [
            {"algorithm": a, "hyperparameters": SCALED.get(a, {}),
             **({"grid": TUNE_GRIDS[a]} if a in TUNE_GRIDS else {})}
            for a in CANDIDATE_ORDER if a not in ("extra_trees", "random_forest")]
    (work / "config.json").write_text(json.dumps(config, indent=1) + "\n")
    if workload == "predict":
        lines = data.read_text().splitlines()
        header, rows = lines[0], lines[1:]
        feature_cut = header.rindex(",")
        rng = np.random.default_rng(seed)
        picks = {}
        for size in QUERY_SIZES:
            idx = rng.integers(0, len(rows), size=size)
            picks[size] = idx.tolist()
            body = [header[:feature_cut]] + [rows[i][:rows[i].rindex(",")] for i in idx]
            (work / f"query_{size}.csv").write_text("\n".join(body) + "\n")
        (work / "query_rows.json").write_text(json.dumps(picks))


def dataset_rows(work: Path) -> int:
    return len((work / "data.csv").read_text().splitlines()) - 1


def build_model(work: Path) -> None:
    """Fit the default run's four selected bases and save the stack that
    ``predict`` requests load.

    The bases are fitted in parallel through the program's own pool. The
    meta classifier is fitted on the bases' probabilities for one stratified
    tenth of the training rows; its weights do not change the predict path.
    """
    config = load_config(work / "config.json")
    train = prepare(config).split.train
    specs = [LearnerSpec(algo, params, config.seed) for algo, params in PREDICT_BASES.items()]
    bases = run_tasks(_fit_base, [(spec, train.X, train.y) for spec in specs])
    plan = k_fold_plan(train.n_rows, 10, config.seed, stratify_by=train.y)
    rows = plan.test_rows(0)
    probas = np.column_stack([b.predict_proba(train.X[rows]) for b in bases])
    meta = fit(LearnerSpec("sgd_logistic", PREDICT_META, config.seed), probas, train.y[rows])
    accuracies = [float(((p >= 0.5) == train.y[rows]).mean()) for p in probas.T]
    selection = select_base_learners(list(zip(specs, accuracies)), len(specs))
    model_dir = work / "models"
    model_dir.mkdir(exist_ok=True)
    save_model(StackedModel(bases, meta, selection, plan), model_dir / MODEL_FILE)


def _fit_base(task):
    return fit(*task)


def cycle(workload: str, work: Path, index: int) -> list[dict]:
    """The operations of one closed-loop cycle: one command, or for predict
    one request per query size."""
    out = work / "out"
    if workload == "predict":
        model = str(work / "models" / MODEL_FILE)
        return [{"kind": "predict", "size": size,
                 "argv": ["predict", "--model", model,
                          "--input", str(work / f"query_{size}.csv"),
                          "--output", str(out / f"c{index}_{size}.csv")]}
                for size in QUERY_SIZES]
    command = "train" if workload == "train" else "baseline"
    return [{"kind": command, "size": dataset_rows(work),
             "argv": [command, "--config", str(work / "config.json"),
                      "--out", str(out / f"c{index}")]}]


def _call(argv) -> int:
    try:
        return heartstack_main(argv)
    except Exception:  # a crash counts as a failed operation, the loop goes on
        traceback.print_exc()
        return -1


def run_loop(workload: str, work: Path, seconds: float, trace: bool) -> dict:
    """Run whole cycles until ``seconds`` have passed, and at least two, so
    that every run has a median and repeated outputs to compare. With
    tracing, untraced and traced cycles alternate.
    """
    tracer = Tracer() if trace else None
    ops = []
    start = time.perf_counter()
    index = 0
    while True:
        traced = trace and index % 2 == 1
        for op in cycle(workload, work, index):
            gc.collect()  # no operation pays for collecting the last one's garbage
            t0 = time.perf_counter()
            if traced:
                with tracer.installed(), tracer.operation(len(ops), op["kind"]):
                    rc = _call(op["argv"])
            else:
                rc = _call(op["argv"])
            ops.append({**op, "rc": rc, "wall": time.perf_counter() - t0, "traced": traced})
        index += 1
        if index >= MIN_CYCLES and time.perf_counter() - start >= seconds:
            break
    result = {"ops": ops}
    if trace:
        result["layers"] = _layers(tracer, ops, work)
    else:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["peak_rss_mb"] = max(own, workers) / 1024.0  # ru_maxrss is in KiB
    return result


def _layers(tracer, ops, work: Path) -> dict:
    walls = {flag: [op["wall"] for op in ops if op["traced"] is flag] for flag in (False, True)}
    metrics = layer_metrics(tracer.spans, walls[False], walls[True])
    selfs = self_times(tracer.spans)
    with open(work / "spans.jsonl", "w") as handle:
        for sid, parent, op, name, t0, t1, attrs in sorted(tracer.spans, key=lambda r: r[4]):
            handle.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                     "start": t0, "end": t1, "self": selfs[sid],
                                     **attrs}) + "\n")
    return metrics


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2], int(sys.argv[3]), Path(sys.argv[4]))
    elif sys.argv[1] == "build":
        build_model(Path(sys.argv[2]))
    else:
        _, _, name, work_dir, secs, trace_flag = sys.argv
        outcome = run_loop(name, Path(work_dir), float(secs), trace_flag == "1")
        (Path(work_dir) / "timed.json").write_text(json.dumps(outcome))
