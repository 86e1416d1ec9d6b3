"""Span tracer for the benchmark's traced pass.

The tracer records spans from outside the program: while installed, it
replaces each public layer function with a timing wrapper at the place
where callers look the name up (``stacking.fit``, ``learners.forest.grow_tree``
and so on), and restores the originals afterwards. Nothing under ``src/``
changes.

A span is ``[id, parent, op, name, start, end, attrs]`` with ``perf_counter``
times, which share one clock across forked processes. Forked pool workers
inherit the installed tracer; each task returns its spans with its result,
and the parent adopts them under its ``parallel.run_tasks`` span.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from contextlib import contextmanager

import heartstack.learners.boosting as boosting
import heartstack.learners.forest as forest
import heartstack.model_selection as model_selection
import heartstack.pipeline as pipeline
import heartstack.stacking as stacking
from heartstack.config import CANDIDATE_ORDER
from heartstack.learners import TrainedModel
from heartstack.parallel import job_count

GROWERS = {
    "grow_exhaustive_tree_batched": "tree.grow_exhaustive",
    "grow_random_tree_batched": "tree.grow_random",
    "grow_tree": "tree.grow_dfs",
}

# Per-layer metric names, in the order the benchmark prints them. Learner
# metrics cover the default candidates; naive_bayes is not among them, since
# no default command fits it.
LAYER_METRICS = (
    [m for a in CANDIDATE_ORDER for m in (f"learners.fit.{a}_s", f"learners.fit.{a}.calls")]
    + ["tree.grow_exhaustive_s", "tree.grow_random_s", "tree.grow_dfs_s", "tree.grows",
       "tree.apply_s", "tree.apply_calls"]
    + [m for a in CANDIDATE_ORDER
       for m in (f"learners.predict.{a}_s", f"learners.predict.{a}.rows")]
    + ["model_selection.cv_s", "model_selection.grid_s", "model_selection.staged_s",
       "stacking.oof_s", "stacking.refit_s", "stacking.meta_s",
       "parallel.wall_s", "parallel.busy_s", "parallel.wait_s", "parallel.tasks",
       "parallel.pools", "parallel.efficiency",
       "model_store.load_s", "model_store.save_s", "model_store.doc_bytes",
       "dataset.parse_s", "dataset.rows", "pipeline.prepare_s", "reporting.write_s",
       "trace.coverage", "trace.overhead_s"]
)

# Counts that must repeat exactly between runs of one commit and seed.
EXACT_COUNTS = ("model_store.doc_bytes", "tree.grows", "tree.apply_calls", "parallel.pools",
                *(f"learners.fit.{a}.calls" for a in CANDIDATE_ORDER))

_active = None  # the Tracer installed in this process; forked workers inherit it


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".rows"):
        return "rows"
    if name.endswith("doc_bytes"):
        return "bytes"
    if name in ("parallel.efficiency", "trace.coverage"):
        return "ratio"
    return "count"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []  # open spans, innermost last
        self.next_id = 0
        self.op = None
        self._meta_specs: list = []  # meta spec of each open fit_stack call

    @contextmanager
    def span(self, name, **attrs):
        rec = [self.next_id, self.stack[-1][0] if self.stack else None, self.op, name,
               time.perf_counter(), None, attrs]
        self.next_id += 1
        self.stack.append(rec)
        try:
            yield rec
        finally:
            rec[5] = time.perf_counter()
            self.stack.pop()
            self.spans.append(rec)

    @contextmanager
    def operation(self, op_id, kind):
        """One benchmark operation: the root span that layer spans hang from."""
        self.op = op_id
        try:
            with self.span("op", kind=kind):
                yield
        finally:
            self.op = None

    @contextmanager
    def installed(self):
        """Swap the timing wrappers in; the originals come back on exit."""
        global _active
        patches = self._patches()
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
        try:
            for module, attr, wrapper in patches:
                setattr(module, attr, wrapper)
            _active = self
            yield self
        finally:
            _active = None
            for module, attr, original in saved:
                setattr(module, attr, original)

    def _patches(self):
        """(module, name, wrapper) for every public layer name, where it is
        looked up. Wrappers close over the names' current values, so call
        it only while nothing is installed."""
        out = []
        for module in (stacking, model_selection, pipeline):
            out.append((module, "fit", self._fit(module.fit, direct=module is stacking)))
        for module in (forest, boosting):
            for attr in GROWERS:
                if hasattr(module, attr):
                    out.append((module, attr, self._timed(GROWERS[attr], getattr(module, attr))))
            out.append((module, "tree_apply", self._timed("tree.apply", module.tree_apply)))
        for module in (stacking, model_selection):
            out.append((module, "run_tasks", self._run_tasks(module.run_tasks)))
        out += [
            (TrainedModel, "predict_proba", self._predict(TrainedModel.predict_proba)),
            (pipeline, "fit_stack", self._fit_stack(pipeline.fit_stack)),
            (stacking, "out_of_fold_probabilities",
             self._timed("stacking.oof", stacking.out_of_fold_probabilities,
                         lambda spec, *a: {"algo": spec.algorithm})),
            (pipeline, "cross_validate",
             self._timed("model_selection.cv", pipeline.cross_validate)),
            (model_selection, "cross_validate",
             self._timed("model_selection.cv", model_selection.cross_validate)),
            (pipeline, "grid_search", self._timed("model_selection.grid", pipeline.grid_search)),
            (model_selection, "_staged_n_estimators_cv",
             self._timed("model_selection.staged", model_selection._staged_n_estimators_cv)),
            (pipeline, "prepare", self._timed("pipeline.prepare", pipeline.prepare)),
            (pipeline, "parse_csv", self._counted("dataset.parse", pipeline.parse_csv,
                                                  lambda ds: {"rows": ds.n_rows})),
            (pipeline, "parse_feature_csv",
             self._counted("dataset.parse", pipeline.parse_feature_csv,
                           lambda out: {"rows": out[0].shape[0]})),
            (pipeline, "save_model", self._counted("model_store.save", pipeline.save_model,
                                                   lambda data: {"bytes": len(data)})),
            (pipeline, "load_model", self._load(pipeline.load_model)),
        ]
        for attr in ("write_json", "write_csv", "format_csv"):
            out.append((pipeline, attr, self._timed("reporting.write", getattr(pipeline, attr))))
        return out

    def _timed(self, name, fn, attrs_of=None):
        def wrapper(*args, **kwargs):
            with self.span(name, **(attrs_of(*args) if attrs_of else {})):
                return fn(*args, **kwargs)
        return wrapper

    def _counted(self, name, fn, attrs_of_result):
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                rec[6].update(attrs_of_result(result))
                return result
        return wrapper

    def _load(self, fn):
        def wrapper(source):
            with self.span("model_store.load", bytes=os.path.getsize(source)):
                return fn(source)
        return wrapper

    def _fit(self, fn, direct):
        def wrapper(spec, X, y):
            attrs = {"algo": spec.algorithm, "rows": len(X)}
            if direct and self.stack and self.stack[-1][3] == "stacking.fit_stack":
                stage = ("stacking.meta" if spec is self._meta_specs[-1]
                         else "stacking.refit")
                with self.span(stage), self.span("learners.fit", **attrs):
                    return fn(spec, X, y)
            with self.span("learners.fit", **attrs):
                return fn(spec, X, y)
        return wrapper

    def _fit_stack(self, fn):
        def wrapper(config, X, y):
            self._meta_specs.append(config.meta)
            try:
                with self.span("stacking.fit_stack"):
                    return fn(config, X, y)
            finally:
                self._meta_specs.pop()
        return wrapper

    def _predict(self, fn):
        def wrapper(model, X):
            with self.span("learners.predict", algo=model.spec.algorithm, rows=len(X)):
                return fn(model, X)
        return wrapper

    def _run_tasks(self, fn):
        def wrapper(task_fn, tasks, jobs=None):
            tasks = list(tasks)
            n_jobs = job_count() if jobs is None else jobs
            workers = min(n_jobs, len(tasks)) if n_jobs > 1 and len(tasks) > 1 else 1
            with self.span("parallel.run_tasks", tasks=len(tasks), workers=workers):
                results = []
                for result, spans in fn(_Task(task_fn), tasks, jobs):
                    self._adopt(spans)
                    results.append(result)
                return results
        return wrapper

    def _adopt(self, spans):
        """Give a task's spans fresh ids; parents outside the task keep theirs."""
        new_ids = {rec[0]: self.next_id + i for i, rec in enumerate(spans)}
        self.next_id += len(spans)
        for rec in spans:
            rec[0] = new_ids[rec[0]]
            rec[1] = new_ids.get(rec[1], rec[1])
            self.spans.append(rec)


class _Task:
    """Picklable wrapper around a run_tasks function: runs one task under a
    ``parallel.task`` span and returns the result with the task's spans."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, task):
        tracer = _active
        outer, tracer.spans = tracer.spans, []
        try:
            with tracer.span("parallel.task"):
                result = self.fn(task)
            return result, tracer.spans
        finally:
            tracer.spans = outer


def _union_length(intervals, lo, hi) -> float:
    total, end = 0.0, lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part its children cover."""
    children = defaultdict(list)
    for rec in spans:
        children[rec[1]].append((rec[4], rec[5]))
    return {rec[0]: (rec[5] - rec[4]) - _union_length(children[rec[0]], rec[4], rec[5])
            for rec in spans}


def layer_metrics(spans, untraced_walls, traced_walls) -> dict:
    """Per-layer metrics as a mean per traced operation.

    ``trace.coverage`` is the smallest share of an operation's wall time that
    its direct child spans cover; ``trace.overhead_s`` is the mean traced
    minus the mean untraced operation wall time.
    """
    ids = {rec[0] for rec in spans}
    if any(rec[1] is not None and rec[1] not in ids for rec in spans):
        raise RuntimeError("a span's parent is missing from the trace")
    roots = [rec for rec in spans if rec[3] == "op"]
    sums = dict.fromkeys(LAYER_METRICS, 0.0)
    children = defaultdict(list)
    pool_capacity = 0.0
    for rec in spans:
        children[rec[1]].append(rec)
    for rec in spans:
        name, attrs, dur = rec[3], rec[6], rec[5] - rec[4]
        algo = attrs.get("algo")
        if name == "learners.fit":
            sums[f"learners.fit.{algo}_s"] += dur
            sums[f"learners.fit.{algo}.calls"] += 1
        elif name == "learners.predict":
            sums[f"learners.predict.{algo}_s"] += dur
            sums[f"learners.predict.{algo}.rows"] += attrs["rows"]
        elif name.startswith("tree.grow_"):
            sums[name + "_s"] += dur
            sums["tree.grows"] += 1
        elif name == "tree.apply":
            sums["tree.apply_s"] += dur
            sums["tree.apply_calls"] += 1
        elif name == "parallel.run_tasks":
            sums["parallel.wall_s"] += dur
            sums["parallel.tasks"] += attrs["tasks"]
            sums["parallel.pools"] += attrs["workers"] > 1
            pool_capacity += dur * attrs["workers"]
        elif name == "parallel.task":
            sums["parallel.busy_s"] += dur
        elif name in ("model_store.load", "model_store.save"):
            sums[name + "_s"] += dur
            sums["model_store.doc_bytes"] += attrs["bytes"]
        elif name == "dataset.parse":
            sums["dataset.parse_s"] += dur
            sums["dataset.rows"] += attrs["rows"]
        elif name + "_s" in sums:
            sums[name + "_s"] += dur
    sums["parallel.wait_s"] = pool_capacity - sums["parallel.busy_s"]
    sums["parallel.efficiency"] = (sums["parallel.busy_s"] / pool_capacity
                                   if pool_capacity else 0.0)
    n_ops = len(roots)
    out = {k: (v if k == "parallel.efficiency" else v / n_ops) for k, v in sums.items()}
    out["trace.coverage"] = min(
        _union_length([(c[4], c[5]) for c in children[r[0]]], r[4], r[5]) / (r[5] - r[4])
        for r in roots)
    out["trace.overhead_s"] = (sum(traced_walls) / len(traced_walls)
                               - sum(untraced_walls) / len(untraced_walls))
    return out
