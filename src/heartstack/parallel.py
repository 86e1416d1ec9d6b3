"""Optional process-level parallelism for fold and candidate fits.

Every parallel unit is an independent fit with its own pre-assigned random
streams, so results are bit-identical to sequential execution regardless
of worker count. HEARTSTACK_JOBS=1 disables forking.
"""

from __future__ import annotations

import multiprocessing
import os

from .errors import ConfigError

# In a pool worker: the function and tasks of its pool, set when the worker
# starts. A fork start pickles neither, so a dispatch carries only an index.
_worker_tasks = None


def job_count() -> int:
    env = os.environ.get("HEARTSTACK_JOBS")
    if env is not None:
        try:
            jobs = int(env)
        except ValueError:
            jobs = None
        if jobs is None or jobs < 1:
            raise ConfigError(f"HEARTSTACK_JOBS must be an integer of at least 1, got {env!r}")
        return jobs
    return min(8, os.cpu_count() or 1)


def _start_worker(fn, tasks) -> None:
    global _worker_tasks
    _worker_tasks = (fn, tasks)


def _run_task(index: int):
    fn, tasks = _worker_tasks
    return fn(tasks[index])


def run_tasks(fn, tasks, jobs: int | None = None) -> list:
    """Apply fn to each task, in order; forks when it pays off.

    Each forked worker starts with the tasks in its memory and takes one
    task index per dispatch, so an idle worker always takes the next task,
    and arrays shared by many tasks are never copied into a pipe.
    """
    tasks = list(tasks)
    jobs = job_count() if jobs is None else jobs
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(min(jobs, len(tasks)), _start_worker, (fn, tasks)) as pool:
        return pool.map(_run_task, range(len(tasks)), chunksize=1)
