"""Time k-NN scoring against the study's train split.

    PYTHONPATH=src python3 scripts/bench_knn.py [--rows 1 235 4096] [--k 3 9 11] [--repeats 5]

The data is the study's stand-in table, cleaned and split as the default
config does: the model is a default-seed ``knn`` fit on the 940-row train
split (standardized, as every k-NN fit is), and the query rows are drawn
with replacement from the cleaned table, one patient, the test-split size
and a clinic batch by default. Each (k, row count) runs ``--repeats``
times, each in a fresh process that fits the model and makes one warm-up
call on 8 rows, so that first-call costs are not counted. The script
prints one JSON object with the median ``predict_proba`` time and the
median peak RSS growth during the call: the process's high-water RSS after
the call minus its RSS just before it (Linux only).
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


def _prepare(path: Path, max_rows: int) -> int:
    from heartstack.cleaning import clean
    from heartstack.config import DEFAULT_SEED
    from heartstack.splitting import stratified_split
    from heartstack.synthetic import generate_dataset

    cleaned, _ = clean(generate_dataset(), "iqr", 1.5)
    train = stratified_split(cleaned, 0.8, DEFAULT_SEED).train
    queries = cleaned.X[np.random.default_rng(0).integers(0, cleaned.n_rows, size=max_rows)]
    np.savez(path, X=train.X, y=train.y, queries=queries)
    return train.n_rows


def _child(data: str, k: int, rows: int) -> None:
    from heartstack.config import DEFAULT_SEED
    from heartstack.learners import LearnerSpec, fit

    with np.load(data) as arrays:
        X, y, queries = arrays["X"], arrays["y"], arrays["queries"][:rows]
    model = fit(LearnerSpec("knn", {"k": k}, seed=DEFAULT_SEED), X, y)
    model.predict_proba(queries[:8])
    with open("/proc/self/statm") as f:
        base = int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20
    start = time.perf_counter()
    model.predict_proba(queries)
    seconds = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"score_s": seconds, "peak_above_base_mb": peak - base}))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rows", type=int, nargs="+", default=[1, 235, 4096])
    ap.add_argument("--k", type=int, nargs="+", default=[3, 9, 11])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--child", nargs=3, metavar=("DATA", "K", "ROWS"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        _child(args.child[0], int(args.child[1]), int(args.child[2]))
        return
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "knn.npz"
        train_rows = _prepare(data, max(args.rows))
        for k in args.k:
            for rows in args.rows:
                runs = [json.loads(subprocess.run(
                    [sys.executable, __file__, "--child", str(data), str(k), str(rows)],
                    check=True, capture_output=True, text=True).stdout)
                    for _ in range(args.repeats)]
                results[f"k{k}-{rows}"] = {
                    key: round(statistics.median(r[key] for r in runs), 5)
                    for key in ("score_s", "peak_above_base_mb")}
    print(json.dumps({"train_rows": train_rows, "features": 11, "repeats": args.repeats,
                      "cpus": os.cpu_count(), "results": results}, indent=2))


if __name__ == "__main__":
    main()
