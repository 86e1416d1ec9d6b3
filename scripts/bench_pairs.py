#!/usr/bin/env python3
"""Before/after benchmark of two checkouts, run back to back on one machine.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --out BENCH_x.json \
        perfbench --workload train --seeds 1,2,3 --pairs 8 [--seconds 30] [--label L]
    python3 scripts/bench_pairs.py ... traced --workload train [--seed 1]
    python3 scripts/bench_pairs.py ... tier1
    python3 scripts/bench_pairs.py ... generate [--seed 77] [--pairs 10]

``perfbench`` runs ``python3 perfbench/run.py`` in each checkout,
alternating the side that goes first per pair, and stores every run's
end-to-end metrics with their quartiles, the share of pairs in which the
change is better and the change of the medians. ``traced`` stores one
``--trace 1`` run per side. ``tier1`` times the tier-1 test command in
each checkout. ``generate`` times, in a fresh process per run and in pairs
like ``perfbench``, the import of ``heartstack.synthetic``, one
``generate_dataset`` call and the whole process. Each mode adds its section
to ``--out`` and keeps the others.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
GENERATE = ("import sys, time; t0 = time.perf_counter(); "
            "from heartstack.synthetic import generate_dataset; t1 = time.perf_counter(); "
            "generate_dataset(int(sys.argv[1])); print(t1 - t0, time.perf_counter() - t1)")


def perfbench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4),
            "runs": [round(v, 4) for v in values]}


def compare(values: dict, lower: bool, pairs: int) -> dict:
    """Quartiles of each side's runs, pairs won by the change and the change
    of the medians."""
    better = sum((c < p) if lower else (c > p)
                 for p, c in zip(values["parent"], values["change"]))
    medians = [statistics.median(values[s]) for s in SIDES]
    return {**{s: quartiles(values[s]) for s in SIDES},
            "better": "lower" if lower else "higher",
            "change_better_in_pairs": f"{better}/{pairs}",
            "median_change_pct": round(100 * (medians[1] / medians[0] - 1), 1)}


def paired(args, dirs) -> dict:
    seeds = [int(s) for s in args.seeds.split(",")]
    runs = {side: [] for side in SIDES}
    for i in range(args.pairs):
        seed = seeds[i % len(seeds)]
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            runs[side].append(perfbench(dirs[side], args.workload, seed, args.seconds, 0))
            print(f"pair {i + 1}/{args.pairs} {side} seed {seed}: "
                  f"{runs[side][-1]['metrics']['op_p50_s']['value']:.3f} s", file=sys.stderr)
    section = {"pairs": args.pairs, "seeds": seeds, "seconds": args.seconds,
               "attempted_operations": {s: sum(r["attempted"] for r in runs[s]) for s in SIDES},
               "failed_operations": {s: sum(r["failed"] for r in runs[s]) for s in SIDES}}
    for name in runs["parent"][0]["metrics"]:
        values = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in SIDES}
        section[name] = compare(values, name != "rows_per_s", args.pairs)
    return section


def generate(args, dirs) -> dict:
    names = ("import_s", "generate_s", "process_s")
    runs = {side: {name: [] for name in names} for side in SIDES}
    for i in range(args.pairs):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", GENERATE, str(args.seed)],
                                  cwd=dirs[side], env={**os.environ, "PYTHONPATH": "src"},
                                  capture_output=True, text=True, check=True)
            times = [float(v) for v in proc.stdout.split()] + [time.perf_counter() - t0]
            for name, value in zip(names, times):
                runs[side][name].append(value)
    section = {"pairs": args.pairs, "seed": args.seed}
    for name in names:
        section[name] = compare({s: runs[s][name] for s in SIDES}, True, args.pairs)
    return section


def traced(args, dirs) -> dict:
    return {side: {name: round(m["value"], 4) for name, m in
                   perfbench(dirs[side], args.workload, args.seed, args.seconds, 1)
                   ["metrics"].items()}
            for side in SIDES}


def tier1(args, dirs) -> dict:
    out = {"command": "PYTHONPATH=src " + " ".join(["python"] + TIER1[1:])}
    for side in SIDES:
        env = {**os.environ, "PYTHONPATH": "src"}
        t0 = time.perf_counter()
        proc = subprocess.run(TIER1, cwd=dirs[side], env=env, capture_output=True, text=True)
        out[side] = {"wall_s": round(time.perf_counter() - t0, 1),
                     "summary": proc.stdout.strip().splitlines()[-1]}
        print(f"tier1 {side}: {out[side]}", file=sys.stderr)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    modes = parser.add_subparsers(dest="mode", required=True)
    bench = modes.add_parser("perfbench")
    bench.add_argument("--workload", required=True)
    bench.add_argument("--seeds", default="1,2,3")
    bench.add_argument("--pairs", type=int, default=6)
    bench.add_argument("--seconds", type=float, default=30.0)
    bench.add_argument("--label", help="section name (default: the workload)")
    trace = modes.add_parser("traced")
    trace.add_argument("--workload", required=True)
    trace.add_argument("--seed", type=int, default=1)
    trace.add_argument("--seconds", type=float, default=30.0)
    modes.add_parser("tier1")
    gen = modes.add_parser("generate")
    gen.add_argument("--seed", type=int, default=77)
    gen.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    if args.mode == "perfbench":
        record.setdefault("perfbench", {})[args.label or args.workload] = paired(args, dirs)
    elif args.mode == "traced":
        record.setdefault("traced", {})[args.workload] = traced(args, dirs)
    elif args.mode == "generate":
        record["generate"] = generate(args, dirs)
    else:
        record["tier1"] = tier1(args, dirs)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
