"""k-fold plans, cross-validation and grid search."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DataError
from .learners import STAGEABLE, LearnerSpec, fit
from .learners.base import is_number, to_labels
from .parallel import run_tasks
from .rng import stream


@dataclass(frozen=True)
class FoldPlan:
    k: int
    assignments: np.ndarray  # row index -> fold id
    seed: int
    stratified: bool

    def __post_init__(self):
        a = np.asarray(self.assignments, dtype=np.int64)
        a.setflags(write=False)
        object.__setattr__(self, "assignments", a)

    @property
    def n(self) -> int:
        return self.assignments.shape[0]

    def test_rows(self, fold: int) -> np.ndarray:
        return np.nonzero(self.assignments == fold)[0]

    def train_rows(self, fold: int) -> np.ndarray:
        return np.nonzero(self.assignments != fold)[0]

    def to_dict(self) -> dict:
        return {"k": self.k, "seed": self.seed, "stratified": self.stratified,
                "assignments": self.assignments.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "FoldPlan":
        return cls(d["k"], np.array(d["assignments"], dtype=np.int64), d["seed"],
                   d["stratified"])


def k_fold_plan(n: int, k: int, seed: int, stratify_by=None) -> FoldPlan:
    """Assign each row to one of k folds.

    Fold sizes differ by at most one; with stratification the same holds
    per class. Deterministic for a fixed seed.
    """
    if k < 2:
        raise DataError("need at least 2 folds")
    if k > n:
        raise DataError(f"cannot make {k} folds from {n} rows")
    assignments = np.empty(n, dtype=np.int64)
    if stratify_by is None:
        order = stream(seed, "folds").permutation(n)
        sizes = np.full(k, n // k)
        sizes[: n % k] += 1
        start = 0
        for fold, size in enumerate(sizes):
            assignments[order[start:start + size]] = fold
            start += size
        return FoldPlan(k, assignments, seed, stratified=False)

    labels = np.asarray(stratify_by)
    if labels.shape != (n,):
        raise DataError("stratify_by length must match n")
    totals = np.zeros(k, dtype=np.int64)
    for cls in np.unique(labels):
        rows = np.nonzero(labels == cls)[0]
        rows = rows[stream(seed, "folds", int(cls)).permutation(len(rows))]
        base, extra = divmod(len(rows), k)
        sizes = np.full(k, base)
        # Extra rows go to the currently smallest folds, lowest id first.
        for fold in np.lexsort((np.arange(k), totals))[:extra]:
            sizes[fold] += 1
        start = 0
        for fold in range(k):
            assignments[rows[start:start + sizes[fold]]] = fold
            start += sizes[fold]
        totals += sizes
    return FoldPlan(k, assignments, seed, stratified=True)


@dataclass(frozen=True)
class GridPoint:
    params: dict
    per_fold: tuple[float, ...]
    # Each fold's class-1 probabilities of its test rows, in fold order.
    probas: tuple[np.ndarray, ...] = field(compare=False, repr=False)

    @property
    def mean(self) -> float:
        return float(np.mean(self.per_fold))


@dataclass(frozen=True)
class GridSearchResult:
    points: tuple[GridPoint, ...]
    best: GridPoint
    best_spec: LearnerSpec

    def to_dict(self) -> dict:
        return {
            "points": [{"params": p.params, "mean": p.mean, "per_fold": list(p.per_fold)}
                       for p in self.points],
            "best_params": self.best.params,
            "best_mean": self.best.mean,
        }


def fold_accuracies(probas, y, test_rows) -> tuple[float, ...]:
    """The accuracy of each fold's class-1 probabilities against y at that
    fold's test rows: the one accuracy rule."""
    return tuple(float((to_labels(proba) == y[rows]).mean())
                 for proba, rows in zip(probas, test_rows))


def _fit_rows(task):
    """Fit on rows ``train`` of the shared X, y and return the class-1
    probabilities of rows ``test``; for a list of checkpoints, those of each
    staged prediction."""
    spec, X, y, train, test, checkpoints = task
    model = fit(spec, X[train], y[train])
    if checkpoints is None:
        return model.predict_proba(X[test])
    return model.staged_proba(X[test], checkpoints)


def fit_rows(fits, X, y) -> list:
    """Run every (spec, train, test, checkpoints) fit of ``fits`` in one
    ``run_tasks`` call, each task carrying the same X and y and its own row
    indices; results in the order of ``fits`` (see ``_fit_rows``)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    return run_tasks(_fit_rows, [(spec, X, y, train, test, checkpoints)
                                 for spec, train, test, checkpoints in fits])


def tune(searches, X, y, plan: FoldPlan) -> list[GridSearchResult]:
    """Cross-validate every (spec, grid) search on one fold plan, all fold
    fits in one ``run_tasks`` call: a ``GridSearchResult`` per search, each
    point with its fold accuracies and each held-out fold's class-1
    probabilities (``probas``). A search without a grid (grid None) is one
    point with params {} whose best spec is the spec itself. A
    pure-n_estimators grid over a stageable ensemble is one maximal fit per
    fold, read by staged prediction, which yields the probabilities of
    refitting."""
    if plan.n != np.shape(X)[0]:
        raise DataError("fold plan does not cover this dataset")
    y = np.asarray(y, dtype=np.int64)
    folds = [(plan.train_rows(fold), plan.test_rows(fold)) for fold in range(plan.k)]
    fits, layouts = [], []
    for spec, grid in searches:
        specs = grid_specs(spec, grid)
        if grid is not None and list(grid) == ["n_estimators"] and spec.algorithm in STAGEABLE:
            staged, picks = _staged_n_estimators_cv(specs, folds)
            fits += staged
        else:
            fits += [(point, train, test, None) for point in specs for train, test in folds]
            picks = None
        layouts.append((grid, specs, picks))

    results = iter(fit_rows(fits, X, y))
    test_rows = [test for _, test in folds]
    out = []
    for grid, specs, picks in layouts:
        if picks is None:
            probas = [tuple(next(results) for _ in folds) for _ in specs]
        else:
            per_fold = [next(results) for _ in folds]
            probas = [tuple(staged[i] for staged in per_fold) for i in picks]
        out.append(_best_point(grid, specs, probas, y, test_rows))
    return out


def cross_validate(spec: LearnerSpec, X, y, plan: FoldPlan) -> GridPoint:
    """Accuracy of the spec on each held-out fold (``per_fold``, ``mean``)
    and its class-1 probabilities there (``probas``); any standardization is
    refit inside each training fold (it lives inside fit()). Folds may run
    in parallel; scores equal the sequential ones exactly."""
    return tune([(spec, None)], X, y, plan)[0].best


def grid_search(spec_template: LearnerSpec, grid: dict[str, list], X, y,
                plan: FoldPlan) -> GridSearchResult:
    """Cross-validate every point of the Cartesian product of the grid.

    The best point attains the maximum mean accuracy; ties go to the
    smallest hyperparameter values in declaration order, where None comes
    first, then numbers, then strings.
    """
    return tune([(spec_template, grid)], X, y, plan)[0]


def grid_specs(spec: LearnerSpec, grid: dict[str, list] | None) -> list[LearnerSpec]:
    """The spec of every point of the grid over ``spec``, in the order of
    the Cartesian product of its values; ``[spec]`` without a grid (None).
    ConfigError for a grid that does not map names to non-empty value
    lists; FitError for a point whose name or value the algorithm rejects."""
    if grid is None:
        return [spec]
    if not isinstance(grid, dict) or not all(isinstance(v, list) for v in grid.values()):
        raise ConfigError("grid must map names to value lists")
    if not grid:
        raise ConfigError("grid must contain at least one dimension")
    for name, values in grid.items():
        if not values:
            raise ConfigError(f"grid dimension {name!r} is empty")
    return [replace(spec, hyperparameters={**spec.hyperparameters, **dict(zip(grid, values))})
            for values in itertools.product(*grid.values())]


def _value_order(value) -> tuple:
    """A total order over grid values: None, then numbers, then strings."""
    return (0,) if value is None else (1, value) if is_number(value) else (2, value)


def _best_point(grid: dict[str, list] | None, specs: list[LearnerSpec], probas_by_point,
                y, test_rows) -> GridSearchResult:
    names = list(grid or ())
    points = tuple(GridPoint({n: spec.hyperparameters[n] for n in names},
                             fold_accuracies(probas, y, test_rows), probas)
                   for spec, probas in zip(specs, probas_by_point))
    # min keeps the first of equal keys, so a grid that repeats a value keeps
    # its first point.
    best = min(range(len(points)), key=lambda i: (
        -points[i].mean, tuple(_value_order(points[i].params[n]) for n in names)))
    return GridSearchResult(points, points[best], specs[best])


def _staged_n_estimators_cv(specs, folds):
    """The fits of a pure-n_estimators grid, given its point specs: one fit
    per fold of the spec with the most estimators, read at every size; plus,
    per point, the index of its probabilities in each fold's result."""
    sizes = [spec.hyperparameters["n_estimators"] for spec in specs]
    checkpoints = sorted(set(sizes))
    full_spec = specs[sizes.index(checkpoints[-1])]
    fits = [(full_spec, train, test, checkpoints) for train, test in folds]
    return fits, [checkpoints.index(s) for s in sizes]
