import numpy as np
import pytest

from conftest import random_classification
from heartstack.errors import ConfigError, DataError, FitError
from heartstack.learners import LearnerSpec, fit
from heartstack.model_selection import cross_validate, grid_search, k_fold_plan, tune


def test_leave_one_out_shape():
    plan = k_fold_plan(10, 10, seed=1)
    sizes = np.bincount(plan.assignments, minlength=10)
    assert (sizes == 1).all()


def test_235_rows_into_10_folds():
    plan = k_fold_plan(235, 10, seed=3)
    sizes = sorted(np.bincount(plan.assignments, minlength=10))
    assert sizes == [23] * 5 + [24] * 5


def test_plan_determinism():
    labels = np.random.default_rng(0).integers(0, 2, 50)
    a = k_fold_plan(50, 5, seed=9, stratify_by=labels)
    b = k_fold_plan(50, 5, seed=9, stratify_by=labels)
    assert np.array_equal(a.assignments, b.assignments)


def test_stratified_class_balance():
    rng = np.random.default_rng(4)
    labels = np.array([0] * 37 + [1] * 63)
    labels = labels[rng.permutation(100)]
    plan = k_fold_plan(100, 7, seed=2, stratify_by=labels)
    sizes = np.bincount(plan.assignments, minlength=7)
    assert sizes.max() - sizes.min() <= 1
    for cls in (0, 1):
        per_fold = np.bincount(plan.assignments[labels == cls], minlength=7)
        assert per_fold.max() - per_fold.min() <= 1


def test_more_folds_than_rows_rejected():
    with pytest.raises(DataError):
        k_fold_plan(5, 6, seed=0)
    with pytest.raises(DataError):
        k_fold_plan(5, 1, seed=0)


def test_constant_classifier_scores_base_rate(monkeypatch):
    # Stub model hard-wired to class 1 exercises the fold mechanics alone.
    class AlwaysOne:
        def predict(self, X):
            return np.ones(len(X), dtype=np.int64)

        def predict_proba(self, X):
            return np.ones(len(X))

    import heartstack.model_selection as ms
    monkeypatch.setattr(ms, "fit", lambda spec, X, y: AlwaysOne())
    monkeypatch.setenv("HEARTSTACK_JOBS", "1")

    X = np.zeros((20, 2))
    all_ones = np.ones(20, dtype=np.int64)
    plan = k_fold_plan(20, 4, seed=0, stratify_by=all_ones)
    scores = ms.cross_validate(LearnerSpec("cart"), X, all_ones, plan)
    assert scores.mean == 1.0

    balanced = np.array([0, 1] * 10)
    plan = k_fold_plan(20, 4, seed=0, stratify_by=balanced)
    scores = ms.cross_validate(LearnerSpec("cart"), X, balanced, plan)
    assert scores.mean == 0.5


def test_cart_cv_matches_manual_fold_loop():
    rng = np.random.default_rng(77)
    X, y = random_classification(rng, 30, 3)
    plan = k_fold_plan(30, 3, seed=5, stratify_by=y)
    spec = LearnerSpec("cart", {}, seed=1)
    scores = cross_validate(spec, X, y, plan)
    manual = []
    for fold in range(3):
        test = plan.assignments == fold
        model = fit(spec, X[~test], y[~test])
        manual.append(float((model.predict(X[test]) == y[test]).mean()))
    assert scores.per_fold == tuple(manual)


def test_single_class_training_fold_propagates():
    # The lone positive lands in exactly one fold, so that fold's model
    # would train on a single class.
    X = np.zeros((4, 1))
    y = np.array([0, 0, 0, 1])
    plan = k_fold_plan(4, 2, seed=0, stratify_by=y)
    with pytest.raises(FitError):
        cross_validate(LearnerSpec("cart"), X, y, plan)


def test_every_search_returns_one_result_type():
    # A search without a grid is one point with params {} whose best spec is
    # the spec itself; cross_validate returns that point.
    rng = np.random.default_rng(3)
    X, y = random_classification(rng, 30, 3)
    plan = k_fold_plan(30, 3, seed=4, stratify_by=y)
    spec = LearnerSpec("cart", {"max_depth": 2}, seed=1)
    plain, searched = tune([(spec, None), (spec, {"max_depth": [1, 3]})], X, y, plan)
    assert plain.best_spec is spec
    assert plain.points == (plain.best,) and plain.best.params == {}
    assert plain.best == cross_validate(spec, X, y, plan)
    assert [p.params for p in searched.points] == [{"max_depth": 1}, {"max_depth": 3}]
    assert searched.best_spec.hyperparameters == searched.best.params


def test_single_point_grid():
    rng = np.random.default_rng(12)
    X, y = random_classification(rng, 40, 3)
    plan = k_fold_plan(40, 4, seed=1, stratify_by=y)
    result = grid_search(LearnerSpec("knn"), {"k": [3]}, X, y, plan)
    assert result.best.params == {"k": 3}
    assert len(result.points) == 1


def test_grid_tie_breaks_to_smallest_values(monkeypatch):
    class Stub:
        def predict(self, X):
            return np.zeros(len(X), dtype=np.int64)

        def predict_proba(self, X):
            return np.zeros(len(X))

    import heartstack.model_selection as ms
    monkeypatch.setattr(ms, "fit", lambda spec, X, y: Stub())
    monkeypatch.setenv("HEARTSTACK_JOBS", "1")
    X = np.zeros((12, 1))
    y = np.array([0, 1] * 6)
    plan = k_fold_plan(12, 3, seed=0, stratify_by=y)
    result = ms.grid_search(LearnerSpec("knn"), {"k": [7, 3, 5]}, X, y, plan)
    assert result.best.params == {"k": 3}  # all tie at 0.5; smallest value wins


@pytest.mark.parametrize("algorithm, grid, best", [
    ("cart", {"max_depth": [3, None]}, {"max_depth": None}),
    ("cart", {"max_features": ["sqrt", 1]}, {"max_features": 1}),
    ("cart", {"max_features": ["sqrt", None, 2]}, {"max_features": None}),
    ("extra_trees", {"criterion": ["gini", "entropy"]}, {"criterion": "entropy"}),
])
def test_grid_ties_over_mixed_values_resolve(algorithm, grid, best):
    # Constant features admit no split, so every point scores the base rate
    # and ties; None comes first, then numbers, then strings.
    X = np.zeros((12, 2))
    y = np.array([0, 1] * 6)
    plan = k_fold_plan(12, 3, seed=0, stratify_by=y)
    spec = LearnerSpec(algorithm, {"n_estimators": 2} if algorithm == "extra_trees" else {})
    result = grid_search(spec, grid, X, y, plan)
    assert len({p.mean for p in result.points}) == 1
    assert result.best.params == best
    assert result.best_spec == LearnerSpec(algorithm, {**spec.hyperparameters, **best})


def test_empty_grid_dimension_rejected():
    X = np.zeros((10, 1))
    y = np.array([0, 1] * 5)
    plan = k_fold_plan(10, 2, seed=0, stratify_by=y)
    with pytest.raises(ConfigError):
        grid_search(LearnerSpec("knn"), {}, X, y, plan)
    with pytest.raises(ConfigError):
        grid_search(LearnerSpec("knn"), {"k": []}, X, y, plan)


@pytest.mark.parametrize("algorithm", ["random_forest", "extra_trees", "gbm", "xgb_style"])
def test_staged_grid_equals_naive_refits(algorithm):
    rng = np.random.default_rng(55)
    X, y = random_classification(rng, 50, 4)
    plan = k_fold_plan(50, 3, seed=2, stratify_by=y)
    template = LearnerSpec(algorithm, {}, seed=9)
    staged = grid_search(template, {"n_estimators": [2, 5, 9]}, X, y, plan)
    naive = []
    for n in (2, 5, 9):
        spec = LearnerSpec(algorithm, {"n_estimators": n}, seed=9)
        naive.append(cross_validate(spec, X, y, plan).per_fold)
    assert [p.per_fold for p in staged.points] == naive


def test_cartesian_product_order_and_size():
    rng = np.random.default_rng(8)
    X, y = random_classification(rng, 30, 2)
    plan = k_fold_plan(30, 3, seed=0, stratify_by=y)
    result = grid_search(LearnerSpec("cart"), {"max_depth": [1, 2], "min_samples_split": [2, 4]},
                         X, y, plan)
    params = [p.params for p in result.points]
    assert params == [
        {"max_depth": 1, "min_samples_split": 2},
        {"max_depth": 1, "min_samples_split": 4},
        {"max_depth": 2, "min_samples_split": 2},
        {"max_depth": 2, "min_samples_split": 4},
    ]
