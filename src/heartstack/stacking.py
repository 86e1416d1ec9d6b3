"""Stacked generalization: base-learner selection, out-of-fold meta-features
and the meta-level classifier.

The meta model never sees a base prediction for a row that the producing
base model was trained on: fold f's column entries come from the model
fitted with fold f held out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .learners import LearnerSpec, TrainedModel, fit
from .learners.base import int_at_least
from .model_selection import FoldPlan, _accuracy, fold_fits, k_fold_plan
from .parallel import run_tasks
from .rng import stream


@dataclass(frozen=True)
class StackingConfig:
    """The stacking rules' one definition: ConfigError, when built, unless
    top_n is an integer from 1 to the candidate count and oof_folds an
    integer of at least 2."""
    candidates: tuple[LearnerSpec, ...]
    top_n: int = 4
    meta: LearnerSpec = field(default_factory=lambda: LearnerSpec("sgd_logistic"))
    oof_folds: int = 10
    seed: int = 0

    def __post_init__(self):
        _check_top_n(self.top_n, len(self.candidates))
        if not int_at_least(self.oof_folds, 2):
            raise ConfigError("oof_folds must be an integer of at least 2")


def _check_top_n(top_n, n_candidates: int):
    if not int_at_least(top_n, 1):
        raise ConfigError("top_n must be an integer of at least 1")
    if top_n > n_candidates:
        raise ConfigError(f"top_n={top_n} exceeds the {n_candidates} candidates")


@dataclass(frozen=True)
class BaseSelectionReport:
    entries: tuple[tuple[LearnerSpec, float], ...]  # candidate order preserved
    indices: tuple[int, ...]  # positions of the selected entries, ascending

    @property
    def selected(self) -> tuple[LearnerSpec, ...]:
        return tuple(self.entries[i][0] for i in self.indices)

    @property
    def rejected(self) -> tuple[LearnerSpec, ...]:
        return tuple(spec for i, (spec, _) in enumerate(self.entries) if i not in self.indices)

    def to_dict(self) -> dict:
        return {
            "candidates": [
                {"algorithm": s.algorithm, "mean_cv_accuracy": acc,
                 "selected": i in self.indices}
                for i, (s, acc) in enumerate(self.entries)
            ],
            "selected": [s.algorithm for s in self.selected],
            "rejected": [s.algorithm for s in self.rejected],
        }


def select_base_learners(cv_results, top_n: int) -> BaseSelectionReport:
    """Keep the top_n candidates by mean CV accuracy.

    ``cv_results`` is an ordered sequence of (spec, mean_accuracy); ties are
    broken by declaration order, i.e. earlier entries win.
    """
    entries = tuple((spec, float(acc)) for spec, acc in cv_results)
    _check_top_n(top_n, len(entries))
    ranked = sorted(range(len(entries)), key=lambda i: (-entries[i][1], i))
    return BaseSelectionReport(entries, tuple(sorted(ranked[:top_n])))


class StackedModel:
    """Selected base models refit on the full training data, plus the meta
    classifier that combines their class-1 probabilities."""

    def __init__(self, bases: list[TrainedModel], meta: TrainedModel,
                 selection: BaseSelectionReport, fold_plan: FoldPlan):
        self.bases = bases
        self.meta = meta
        self.selection = selection
        self.fold_plan = fold_plan

    @property
    def n_features_in(self) -> int:
        return self.bases[0].n_features_in

    def base_probabilities(self, X) -> np.ndarray:
        return np.column_stack([b.predict_proba(X) for b in self.bases])

    def predict_proba(self, X) -> np.ndarray:
        return self.meta.predict_proba(self.base_probabilities(X))

    def predict(self, X) -> np.ndarray:
        return (self.predict_proba(X) >= 0.5).astype(np.int64)


def _oof_column(probas, y, plan: FoldPlan) -> tuple[np.ndarray, tuple[float, ...]]:
    oof = np.empty(plan.n)
    scores = []
    for fold, proba in enumerate(probas):
        test = plan.test_rows(fold)
        oof[test] = proba
        scores.append(_accuracy(proba, y[test]))
    return oof, tuple(scores)


def out_of_fold_probabilities(spec: LearnerSpec, X, y, plan: FoldPlan) -> tuple[np.ndarray, tuple[float, ...]]:
    """OOF class-1 probabilities for one candidate plus its fold accuracies.

    Row i's entry comes from the model trained with fold(i) held out.
    """
    [[probas]] = fold_fits([(spec, None)], X, y, plan, score="proba")
    return _oof_column(probas, np.asarray(y, dtype=np.int64), plan)


def _fit(task) -> TrainedModel:
    return fit(*task)


def fit_stack(config: StackingConfig, X, y) -> StackedModel:
    """Cross-validate all candidates on a shared fold plan, select the top_n,
    then refit the selected bases on the full training data and train the
    meta classifier on their out-of-fold probabilities.

    Two ``run_tasks`` calls: one for every fold fit of every candidate, one
    for the refits and the meta fit.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    plan = k_fold_plan(X.shape[0], config.oof_folds,
                       int(stream(config.seed, "oof").integers(2**31)), stratify_by=y)

    oof_columns: list[np.ndarray] = []
    cv_results: list[tuple[LearnerSpec, float]] = []
    per_candidate = fold_fits([(spec, None) for spec in config.candidates], X, y, plan,
                              score="proba")
    for spec, [probas] in zip(config.candidates, per_candidate):
        oof, scores = _oof_column(probas, y, plan)
        oof_columns.append(oof)
        cv_results.append((spec, float(np.mean(scores))))

    selection = select_base_learners(cv_results, config.top_n)
    meta_features = np.column_stack([oof_columns[i] for i in selection.indices])
    *bases, meta = run_tasks(_fit, [(config.candidates[i], X, y) for i in selection.indices]
                             + [(config.meta, meta_features, y)])
    return StackedModel(bases, meta, selection, plan)

