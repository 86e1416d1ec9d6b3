"""Time the tree learners' fits at the shape of one OOF fold.

    PYTHONPATH=src python3 scripts/bench_trees.py [--trees 25 500] [--repeats 5]
    PYTHONPATH=src python3 scripts/bench_trees.py --src parent=DIR/src change=DIR/src ...

The learners are random_forest, extra_trees, xgb_style, gbm and adaboost,
each with ``n_estimators`` set to every ``--trees`` count, and CART,
sgd_logistic and linear_svc, which have no tree count. The data is the
study's stand-in table, cleaned and split as the default config does; the
fit uses the first 846 training rows (nine tenths of the 940-row train
split, one fold of the 10-fold OOF stage) with the default hyperparameters
apart from ``n_estimators``; AdaBoost may stop before its count. Each (algorithm, tree
count) runs ``--repeats`` times, each in a fresh process that loads the
prepared rows and makes one warm-up fit (one tree on 50 rows), so that
first-call costs are not counted. The script prints one JSON object with the
median fit wall time (``fit_s``), the median fit CPU time of the process
(``cpu_s``, steadier than wall time on a shared machine) and the median peak
RSS growth during the fit: the process's high-water RSS after the fit minus
its RSS just before it (Linux only).

With ``--src``, each labelled source directory is benchmarked in turn for
every repeat of every case, so two checkouts are compared interleaved, and
the results are keyed by label.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROWS = 846
ENSEMBLES = ("random_forest", "extra_trees", "xgb_style", "gbm", "adaboost")
SINGLE_FITS = ("cart", "sgd_logistic", "linear_svc")  # no tree count


def _prepare(path: Path) -> None:
    from heartstack.cleaning import clean
    from heartstack.config import DEFAULT_SEED
    from heartstack.splitting import stratified_split
    from heartstack.synthetic import generate_dataset

    cleaned, _ = clean(generate_dataset(), "iqr", 1.5)
    train = stratified_split(cleaned, 0.8, DEFAULT_SEED).train
    np.savez(path, X=train.X[:ROWS], y=train.y[:ROWS])


def _hyperparameters(algorithm: str, trees: int) -> dict:
    return {} if algorithm in SINGLE_FITS else {"n_estimators": trees}


def _child(data: str, algorithm: str, trees: int) -> None:
    from heartstack.config import DEFAULT_SEED
    from heartstack.learners import LearnerSpec, fit

    with np.load(data) as arrays:
        X, y = arrays["X"], arrays["y"]
    fit(LearnerSpec(algorithm, _hyperparameters(algorithm, 1), seed=DEFAULT_SEED),
        X[:50], y[:50])
    spec = LearnerSpec(algorithm, _hyperparameters(algorithm, trees), seed=DEFAULT_SEED)
    with open("/proc/self/statm") as f:
        base = int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20
    start, cpu_start = time.perf_counter(), time.process_time()
    fit(spec, X, y)
    seconds, cpu = time.perf_counter() - start, time.process_time() - cpu_start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"fit_s": seconds, "cpu_s": cpu, "peak_above_base_mb": peak - base}))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trees", type=int, nargs="+", default=[25, 500])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--src", nargs="+", metavar="LABEL=DIR",
                    help="source directories to import heartstack from, interleaved")
    ap.add_argument("--child", nargs=3, metavar=("DATA", "ALGORITHM", "TREES"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        _child(args.child[0], args.child[1], int(args.child[2]))
        return
    sources = dict(item.split("=", 1) for item in args.src) if args.src else {None: None}
    runs = {label: {} for label in sources}
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "fold.npz"
        _prepare(data)
        cases = ([(a, t, f"{a}-{t}") for t in args.trees for a in ENSEMBLES]
                 + [(a, 1, a) for a in SINGLE_FITS])
        for algorithm, trees, name in cases:
            for _ in range(args.repeats):
                for label, src in sources.items():
                    env = dict(os.environ, PYTHONPATH=src) if src else None
                    runs[label].setdefault(name, []).append(json.loads(subprocess.run(
                        [sys.executable, __file__, "--child", str(data), algorithm, str(trees)],
                        check=True, capture_output=True, text=True, env=env).stdout))
    results = {label: {name: {key: round(statistics.median(r[key] for r in case_runs), 4)
                              for key in ("fit_s", "cpu_s", "peak_above_base_mb")}
                       for name, case_runs in cases_run.items()}
               for label, cases_run in runs.items()}
    if not args.src:
        results = results[None]
    print(json.dumps({"rows": ROWS, "features": 11, "repeats": args.repeats,
                      "cpus": os.cpu_count(), "results": results}, indent=2))


if __name__ == "__main__":
    main()
