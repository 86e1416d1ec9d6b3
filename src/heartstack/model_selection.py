"""k-fold plans, cross-validation and grid search."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataError
from .learners import STAGEABLE, LearnerSpec, fit
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
class CvScores:
    per_fold: tuple[float, ...]

    @property
    def mean(self) -> float:
        return float(np.mean(self.per_fold))


@dataclass(frozen=True)
class GridPoint:
    params: dict
    per_fold: tuple[float, ...]

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


def _accuracy(proba: np.ndarray, y: np.ndarray) -> float:
    return float(((proba >= 0.5).astype(np.int64) == y).mean())


def _fit_rows(task):
    """Fit on rows ``train`` of the shared X, y and score rows ``test``:
    their class-1 probabilities (score "proba"), their accuracy (score
    "accuracy"), or for a list of checkpoints the accuracy of each staged
    prediction."""
    spec, X, y, train, test, score = task
    model = fit(spec, X[train], y[train])
    X_test, y_test = X[test], y[test]
    if score == "proba":
        return model.predict_proba(X_test)
    if score == "accuracy":
        return float((model.predict(X_test) == y_test).mean())
    return [_accuracy(proba, y_test) for proba in model.staged_proba(X_test, score)]


def fit_rows(fits, X, y) -> list:
    """Run every (spec, train, test, score) fit of ``fits`` in one
    ``run_tasks`` call, each task carrying the same X and y and its own row
    indices; results in the order of ``fits`` (see ``_fit_rows``)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    return run_tasks(_fit_rows, [(spec, X, y, train, test, score)
                                 for spec, train, test, score in fits])


def fold_fits(searches, X, y, plan: FoldPlan, score: str = "accuracy") -> list:
    """Every fold fit of every (spec, grid) search, in one ``run_tasks`` call.

    A search without a grid (grid None) is one point; a grid has one point
    per element of the Cartesian product of its values. Returns, per search
    and per point, the fold results in fold order. Scored by accuracy,
    pure-n_estimators grids over stageable ensembles are one maximal fit per
    fold, scored by staged prediction, which yields identical scores to
    refitting.
    """
    if plan.n != np.shape(X)[0]:
        raise DataError("fold plan does not cover this dataset")
    folds = [(plan.train_rows(fold), plan.test_rows(fold)) for fold in range(plan.k)]
    fits, layouts = [], []
    for spec, grid in searches:
        specs = grid_specs(spec, grid)
        if (score == "accuracy" and grid is not None and list(grid) == ["n_estimators"]
                and spec.algorithm in STAGEABLE):
            staged, picks = _staged_n_estimators_cv(spec, grid["n_estimators"], folds)
            fits += staged
        else:
            fits += [(point, train, test, score) for point in specs for train, test in folds]
            picks = None
        layouts.append((len(specs), picks))

    results = iter(fit_rows(fits, X, y))
    out = []
    for n_combos, picks in layouts:
        if picks is None:
            out.append([tuple(next(results) for _ in folds) for _ in range(n_combos)])
        else:
            per_fold = [next(results) for _ in folds]
            out.append([tuple(scores[i] for scores in per_fold) for i in picks])
    return out


def tune(searches, X, y, plan: FoldPlan) -> list:
    """Cross-validate every (spec, grid) search on one fold plan, all fold
    fits in one ``run_tasks`` call: a ``CvScores`` per search without a
    grid, a ``GridSearchResult`` per search with one."""
    out = []
    for (spec, grid), points in zip(searches, fold_fits(searches, X, y, plan)):
        out.append(CvScores(points[0]) if grid is None else _best_point(spec, grid, points))
    return out


def cross_validate(spec: LearnerSpec, X, y, plan: FoldPlan) -> CvScores:
    """Accuracy of the spec on each held-out fold; any standardization is
    refit inside each training fold (it lives inside fit()). Folds may run
    in parallel; scores equal the sequential ones exactly."""
    return tune([(spec, None)], X, y, plan)[0]


def grid_search(spec_template: LearnerSpec, grid: dict[str, list], X, y,
                plan: FoldPlan) -> GridSearchResult:
    """Cross-validate every point of the Cartesian product of the grid.

    The best point attains the maximum mean accuracy; ties go to the
    smallest hyperparameter values in declaration order.
    """
    return tune([(spec_template, grid)], X, y, plan)[0]


def grid_specs(spec: LearnerSpec, grid: dict[str, list] | None) -> list[LearnerSpec]:
    """The spec of every point of the grid over ``spec``, in the order of
    the Cartesian product of its values; one spec without a grid (None).
    ConfigError for a grid that does not map names to non-empty value
    lists; FitError for a point whose name or value the algorithm rejects."""
    return [_with_params(spec, combo) for combo in _grid_points(grid)]


def _grid_points(grid: dict[str, list] | None) -> list[dict]:
    if grid is None:
        return [{}]
    if not isinstance(grid, dict) or not all(isinstance(v, list) for v in grid.values()):
        raise ConfigError("grid must map names to value lists")
    if not grid:
        raise ConfigError("grid must contain at least one dimension")
    for name, values in grid.items():
        if not values:
            raise ConfigError(f"grid dimension {name!r} is empty")
    return [dict(zip(grid, values)) for values in itertools.product(*grid.values())]


def _best_point(spec_template: LearnerSpec, grid: dict[str, list],
                per_fold_by_combo) -> GridSearchResult:
    names = list(grid)
    points = tuple(GridPoint(combo, per_fold)
                   for combo, per_fold in zip(_grid_points(grid), per_fold_by_combo))
    best = points[0]
    for point in points[1:]:
        key = tuple(point.params[n] for n in names)
        best_key = tuple(best.params[n] for n in names)
        if point.mean > best.mean or (point.mean == best.mean and key < best_key):
            best = point
    return GridSearchResult(points, best, _with_params(spec_template, best.params))


def _with_params(template: LearnerSpec, params: dict) -> LearnerSpec:
    merged = {**template.hyperparameters, **params}
    return replace(template, hyperparameters=merged)


def _staged_n_estimators_cv(template, sizes, folds):
    """The fits of a pure-n_estimators grid: one fit per fold at the largest
    size, scored at every size; plus, per size in grid order, the index of
    its score in each fold's result."""
    checkpoints = sorted(set(sizes))
    full_spec = _with_params(template, {"n_estimators": max(checkpoints)})
    fits = [(full_spec, train, test, checkpoints) for train, test in folds]
    return fits, [checkpoints.index(s) for s in sizes]
