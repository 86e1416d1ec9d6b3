#!/usr/bin/env python3
"""heartstack benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {train,tune,predict} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.
Set-up (data, config and, for predict, the saved stack) happens first and
is timed as ``setup_s``: the median of three set-ups of the input files, each
in a fresh process, plus for predict one build of the stack. The timed
phase runs in a fresh child process with HEARTSTACK_JOBS=2. With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced pass, and the spans go to
``.perfbench_work/<workload>/spans.jsonl``. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("train", "tune", "predict")
SETUP_REPEATS = 3
# The whole run, set-up included, may take --seconds plus this; the last
# operation of the timed loop may start just before --seconds is up.
DEADLINE_MARGIN_S = 140.0

# Pinned so that results do not depend on the machine's core count or on
# BLAS threads competing with the forked workers.
CHILD_ENV = {"HEARTSTACK_JOBS": "2", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SOURCE_DATE_EPOCH"}
    env.update(CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(HERE),
                                                      env.get("PYTHONPATH")]))
    return env


def _run_child(args: list[str], work: Path, deadline: float) -> None:
    """Run workloads.py in its own process group. On timeout the group is
    killed; after any exit, so is whatever the child left running."""
    with open(work / "child.log", "ab") as log:
        proc = subprocess.Popen([sys.executable, str(HERE / "workloads.py"), *args],
                                cwd=work, env=_child_env(), stdout=log,
                                stderr=subprocess.STDOUT, start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    if code != 0:
        raise RuntimeError(f"benchmark child {args[0]} exited with {code}; see {work / 'child.log'}")


def _environment() -> dict:
    import numpy

    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            **CHILD_ENV}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + args.seconds + DEADLINE_MARGIN_S

    if not (SRC / "heartstack" / "__init__.py").is_file():
        print(f"perfbench: no heartstack package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import checks
    from tracer import layer_unit

    work = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        _run_child(["setup", args.workload, str(args.seed), str(work)], work, deadline)
        setup_times.append(time.perf_counter() - t0)
    setup_s = statistics.median(setup_times)
    if args.workload == "predict":
        t0 = time.perf_counter()
        _run_child(["build", str(work)], work, deadline)
        setup_s += time.perf_counter() - t0

    _run_child(["run", args.workload, str(work), str(args.seconds), str(args.trace)],
               work, deadline)
    timed = json.loads((work / "timed.json").read_text())
    ops = timed["ops"]
    failed = checks.failed_operations(args.workload, args.seed, work, ops)

    walls = [op["wall"] for op in ops if not op["traced"]]
    rows = sum(op["size"] for op in ops if not op["traced"])
    if args.trace:
        metrics = {name: (value, layer_unit(name)) for name, value in timed["layers"].items()}
    else:
        metrics = {"op_p50_s": (statistics.median(walls), "s"),
                   "rows_per_s": (rows / sum(walls), "rows/s"),
                   "setup_s": (setup_s, "s"),
                   "peak_rss_mb": (timed["peak_rss_mb"], "MB")}
    env = _environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "setup_times": setup_times,
              "operations": [{"kind": op["kind"], "size": op["size"], "wall": op["wall"],
                              "traced": op["traced"], "rc": op["rc"], "failed": f}
                             for op, f in zip(ops, failed)],
              "metrics": {k: v for k, (v, _) in metrics.items()}}
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed}: {len(ops)} operations attempted, "
          f"{sum(failed)} failed; {len(walls)} timed")
    print(f"# environment {json.dumps(env)}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({"correct": not any(failed), "attempted": len(ops), "failed": sum(failed),
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
