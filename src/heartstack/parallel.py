"""Optional process-level parallelism for fold and candidate fits.

Every parallel unit is an independent fit with its own pre-assigned random
streams, so results are bit-identical to sequential execution regardless
of worker count. HEARTSTACK_JOBS=1 disables forking.
"""

from __future__ import annotations

import multiprocessing
import os

from .errors import ConfigError


def job_count() -> int:
    env = os.environ.get("HEARTSTACK_JOBS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"HEARTSTACK_JOBS must be an integer, got {env!r}") from None
    return min(8, os.cpu_count() or 1)


def run_tasks(fn, tasks, jobs: int | None = None) -> list:
    """Apply fn to each task, in order; forks when it pays off."""
    tasks = list(tasks)
    jobs = job_count() if jobs is None else jobs
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(min(jobs, len(tasks))) as pool:
        return pool.map(fn, tasks)
