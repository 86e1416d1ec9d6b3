import numpy as np
import pytest

from conftest import random_classification
from heartstack.errors import ConfigError
from heartstack.learners import LearnerSpec, fit
from heartstack.model_selection import k_fold_plan
from heartstack.stacking import (
    StackingConfig,
    fit_stack,
    out_of_fold_probabilities,
    predict_stack,
    select_base_learners,
)

FAST_META = LearnerSpec("sgd_logistic", {"epochs": 15})


def spec_of(algorithm, **params):
    return LearnerSpec(algorithm, params, seed=5)


def test_select_top_two():
    specs = [spec_of("cart"), spec_of("knn"), spec_of("naive_bayes")]
    report = select_base_learners(list(zip(specs, [0.9, 0.8, 0.7])), top_n=2)
    assert report.selected == (specs[0], specs[1])
    assert report.rejected == (specs[2],)


def test_selection_tie_breaks_by_declaration_order():
    # Accuracies shaped like the published baseline table: the three-way tie
    # at 84.25 resolves toward the earliest declared candidate.
    table = [
        ("xgb_style", 0.9191), ("extra_trees", 0.9093), ("random_forest", 0.9021),
        ("gbm", 0.8425), ("cart", 0.8425), ("mlp", 0.8425), ("adaboost", 0.8340),
        ("linear_svc", 0.8255), ("sgd_logistic", 0.8212), ("knn", 0.8085),
    ]
    entries = [(spec_of(algo), acc) for algo, acc in table]
    report = select_base_learners(entries, top_n=4)
    assert [s.algorithm for s in report.selected] == [
        "xgb_style", "extra_trees", "random_forest", "gbm"
    ]


def test_all_equal_selects_first_in_order():
    specs = [spec_of("cart"), spec_of("knn"), spec_of("naive_bayes")]
    report = select_base_learners([(s, 0.5) for s in specs], top_n=2)
    assert report.selected == (specs[0], specs[1])


def test_selection_needs_enough_candidates():
    with pytest.raises(ConfigError):
        select_base_learners([(spec_of("cart"), 0.9)], top_n=2)


def test_config_validates_top_n():
    with pytest.raises(ConfigError):
        StackingConfig(candidates=(spec_of("cart"),), top_n=2)


def test_out_of_fold_purity_by_refitting():
    rng = np.random.default_rng(41)
    X, y = random_classification(rng, 40, 3)
    plan = k_fold_plan(40, 4, seed=3, stratify_by=y)
    spec = spec_of("cart")
    oof, _ = out_of_fold_probabilities(spec, X, y, plan)
    for fold in range(plan.k):
        train, test = plan.train_rows(fold), plan.test_rows(fold)
        model = fit(spec, X[train], y[train])
        assert np.array_equal(oof[test], model.predict_proba(X[test]))


def test_perfect_memorizer_dominates_stack():
    # Feature 0 carries the label, so the tree memorizer is also perfect
    # out-of-fold and must win selection; the stack then scores 1.0.
    rng = np.random.default_rng(11)
    X, y = random_classification(rng, 60, 3)
    X = X.copy()
    X[:, 0] = y
    config = StackingConfig(
        candidates=(spec_of("cart"), spec_of("naive_bayes")),
        top_n=1, meta=FAST_META, oof_folds=4, seed=2,
    )
    stack = fit_stack(config, X, y)
    assert [b.spec.algorithm for b in stack.bases] == ["cart"]
    assert (stack.predict(X) == y).all()


def test_oracle_base_is_followed_on_held_out_rows():
    # One feature equals the label; the memorizing base becomes a true
    # oracle and the meta model should follow it.
    rng = np.random.default_rng(13)
    n = 80
    X = rng.normal(size=(n, 3))
    y = rng.integers(0, 2, n)
    y[:2] = (0, 1)
    X[:, 0] = y
    config = StackingConfig(
        candidates=(spec_of("cart"), spec_of("knn", k=3)),
        top_n=2, meta=FAST_META, oof_folds=4, seed=7,
    )
    stack = fit_stack(config, X, y)
    X_new = rng.normal(size=(30, 3))
    y_new = rng.integers(0, 2, 30)
    X_new[:, 0] = y_new
    labels, proba = predict_stack(stack, X_new)
    assert (labels == y_new).all()
    assert ((proba >= 0.0) & (proba <= 1.0)).all()


def test_degenerate_constant_bases(monkeypatch):
    class Constant:
        def __init__(self, value):
            self.value = value
            self.spec = spec_of("cart")

        def predict_proba(self, X):
            return np.full(len(X), self.value)

        def predict(self, X):
            return (self.predict_proba(X) >= 0.5).astype(np.int64)

    import heartstack.stacking as stacking
    calls = {"n": 0}

    def fake_fit(spec, X, y):
        # alternate candidates: first always ~0, second always ~1
        calls["n"] += 1
        return Constant(0.001 if spec.hyperparameters.get("max_depth") == 1 else 0.999)

    monkeypatch.setattr(stacking, "fit", fake_fit)
    monkeypatch.setenv("HEARTSTACK_JOBS", "1")
    X = np.random.default_rng(0).normal(size=(40, 2))
    y = np.array([0, 1] * 20)
    config = StackingConfig(
        candidates=(spec_of("cart", max_depth=1), spec_of("cart", max_depth=2)),
        top_n=2, meta=FAST_META, oof_folds=4, seed=1,
    )
    stack = fit_stack(config, X, y)
    meta_features = stack.base_probabilities(X)
    assert np.allclose(meta_features[:, 0], 0.001)
    assert np.allclose(meta_features[:, 1], 0.999)
    accuracy = (stack.predict(X) == y).mean()
    assert accuracy >= 0.5


def test_fit_stack_deterministic():
    rng = np.random.default_rng(17)
    X, y = random_classification(rng, 50, 4)
    config = StackingConfig(
        candidates=(spec_of("cart"), spec_of("naive_bayes"), spec_of("knn", k=3)),
        top_n=2, meta=FAST_META, oof_folds=5, seed=21,
    )
    a = fit_stack(config, X, y)
    b = fit_stack(config, X, y)
    assert [s.algorithm for s in a.selection.selected] == \
        [s.algorithm for s in b.selection.selected]
    q = rng.normal(size=(25, 4))
    assert np.array_equal(a.predict_proba(q), b.predict_proba(q))
    assert np.array_equal(a.fold_plan.assignments, b.fold_plan.assignments)


def test_one_spec_listed_twice_is_selected_once():
    # Selection is by position: the same spec object in two candidate slots
    # must not make both slots look selected.
    rng = np.random.default_rng(4)
    X, y = random_classification(rng, 60, 11)
    s = spec_of("naive_bayes")
    stack = fit_stack(StackingConfig(candidates=(s, s), top_n=1, meta=FAST_META,
                                     oof_folds=4, seed=2), X, y)
    assert len(stack.bases) == 1
    assert stack.meta.n_features_in == 1
    report = stack.selection.to_dict()
    assert [c["selected"] for c in report["candidates"]] == [True, False]
    assert report["selected"] == ["naive_bayes"]
    assert report["rejected"] == ["naive_bayes"]


def test_identical_rows_score_identically(default_split):
    rng = np.random.default_rng(2)
    X, y = random_classification(rng, 40, 3)
    config = StackingConfig(
        candidates=(spec_of("cart"), spec_of("naive_bayes")),
        top_n=2, meta=FAST_META, oof_folds=4, seed=3,
    )
    stack = fit_stack(config, X, y)
    row = X[:1]
    two = np.vstack([row, row])
    proba = stack.predict_proba(two)
    assert proba[0] == proba[1]
