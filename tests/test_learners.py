import numpy as np
import pytest

from conftest import random_classification
from heartstack.errors import FitError
from heartstack.learners import ALGORITHMS, LearnerSpec, fit
from heartstack.learners.tree import leaf_weight
from heartstack.learners.linear import _sgd, logistic_loss_and_grad
from heartstack.learners.mlp import init_params, loss_and_grad
from heartstack.learners.tree import tree_apply
from heartstack.rng import stream
from heartstack.standardize import fit_standardizer

SMALL = {"random_forest": {"n_estimators": 15}, "extra_trees": {"n_estimators": 15},
         "gbm": {"n_estimators": 15}, "xgb_style": {"n_estimators": 15},
         "adaboost": {"n_estimators": 10}, "mlp": {"epochs": 60},
         "sgd_logistic": {"epochs": 20}, "linear_svc": {"epochs": 20}}


def small_spec(algorithm, seed=0, **extra):
    params = dict(SMALL.get(algorithm, {}))
    params.update(extra)
    return LearnerSpec(algorithm, params, seed)


@pytest.fixture(scope="module")
def train_data():
    rng = np.random.default_rng(1234)
    return random_classification(rng, 90, 5)


def test_knn_nearest_neighbor():
    X = np.array([[0.0], [10.0]])
    y = np.array([0, 1])
    model = fit(LearnerSpec("knn", {"k": 1}), X, y)
    assert model.predict(np.array([[1.0]]))[0] == 0
    assert model.predict(np.array([[9.0]]))[0] == 1


def test_adaboost_single_round_on_separable_data():
    X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
    y = np.array([0, 0, 0, 1, 1, 1])
    model = fit(LearnerSpec("adaboost", {"n_estimators": 1}), X, y)
    stump = model.trees
    assert stump.n_trees == 1
    assert (model.predict(X) == y).all()
    assert 2.0 < stump.threshold[stump.roots[0]] < 10.0
    alpha = abs(stump.value).max()
    assert alpha > 0 and set(stump.value[stump.left == -1]) == {-alpha, alpha}


def test_gbm_initial_margin_zero_at_balanced_rate():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 1, 0, 1])
    model = fit(LearnerSpec("gbm", {"n_estimators": 1}), X, y)
    assert model.init_score == 0.0


def test_xgb_leaf_weight_formula():
    assert leaf_weight(g_sum=2.0, h_sum=1.0, reg_lambda=1.0) == -1.0


def test_naive_bayes_separated_clusters():
    rng = np.random.default_rng(3)
    X0 = rng.normal(-10.0, 1.0, size=(30, 2))
    X1 = rng.normal(10.0, 1.0, size=(30, 2))
    X = np.vstack([X0, X1])
    y = np.array([0] * 30 + [1] * 30)
    model = fit(LearnerSpec("naive_bayes"), X, y)
    proba = model.predict_proba(X)
    assert (proba[:30] < 0.5).all()
    assert (proba[30:] > 0.5).all()


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_probability_range_and_threshold_rule(algorithm, train_data):
    X, y = train_data
    model = fit(small_spec(algorithm, seed=7), X, y)
    rng = np.random.default_rng(0)
    queries = rng.normal(size=(60, X.shape[1]))
    proba = model.predict_proba(queries)
    assert (proba >= 0.0).all() and (proba <= 1.0).all()
    assert (model.predict(queries) == (proba >= 0.5).astype(int)).all()


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_seed_determinism(algorithm, train_data):
    X, y = train_data
    a = fit(small_spec(algorithm, seed=11), X, y)
    b = fit(small_spec(algorithm, seed=11), X, y)
    queries = np.random.default_rng(1).normal(size=(40, X.shape[1]))
    assert np.array_equal(a.predict_proba(queries), b.predict_proba(queries))


@pytest.mark.parametrize("algorithm", ["cart", "knn", "naive_bayes"])
def test_permutation_invariance(algorithm, train_data):
    X, y = train_data
    perm = np.random.default_rng(5).permutation(len(y))
    a = fit(small_spec(algorithm, seed=3), X, y)
    b = fit(small_spec(algorithm, seed=3), X[perm], y[perm])
    queries = np.random.default_rng(2).normal(size=(50, X.shape[1]))
    assert np.array_equal(a.predict(queries), b.predict(queries))
    assert np.allclose(a.predict_proba(queries), b.predict_proba(queries), atol=1e-12)


@pytest.mark.parametrize("algorithm", ["cart", "extra_trees"])
def test_memorization_with_full_features(algorithm, train_data):
    X, y = train_data
    model = fit(LearnerSpec(algorithm, {"n_estimators": 15, "max_features": None}
                            if algorithm == "extra_trees" else {"max_features": None},
                            seed=2), X, y)
    assert (model.predict(X) == y).all()


def test_forest_vote_identity(train_data):
    # Odd tree count; continuous features keep every leaf pure, so the
    # probability-weighted vote equals the strict majority of tree labels.
    X, y = train_data
    model = fit(LearnerSpec("random_forest", {"n_estimators": 21}, seed=13), X, y)
    queries = np.random.default_rng(3).normal(size=(80, X.shape[1]))
    votes = (tree_apply(model.trees, queries) >= 0.5).sum(axis=0)
    majority = (votes > model.trees.n_trees / 2).astype(int)
    assert (model.predict(queries) == majority).all()


@pytest.mark.parametrize("algorithm", ["gbm", "xgb_style"])
def test_boosting_training_loss_non_increasing(algorithm, train_data):
    X, y = train_data
    model = fit(LearnerSpec(algorithm, {"n_estimators": 25, "learning_rate": 0.3},
                            seed=1), X, y)
    checkpoints = list(range(1, 26))
    losses = []
    for proba in model.staged_proba(X, checkpoints):
        p = np.clip(proba, 1e-12, 1 - 1e-12)
        losses.append(float(-(y * np.log(p) + (1 - y) * np.log(1 - p)).mean()))
    diffs = np.diff(losses)
    assert (diffs <= 1e-12).all()


def central_difference(fun, args, index, step=1e-5):
    grads = []
    base = [np.array(a, dtype=float, copy=True) for a in args]
    flat = base[index].reshape(-1)
    grad = np.empty_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = fun(base)
        flat[i] = orig - step
        lo = fun(base)
        flat[i] = orig
        grad[i] = (hi - lo) / (2 * step)
    return grad.reshape(base[index].shape)


def relative_error(a, b):
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


def test_logistic_gradient_matches_finite_differences():
    rng = np.random.default_rng(21)
    X = rng.normal(size=(12, 4))
    y = rng.integers(0, 2, 12).astype(float)
    w = rng.normal(size=4) * 0.5
    b = 0.3
    _, grad_w, grad_b = logistic_loss_and_grad(w, b, X, y, l2=0.01)

    fd_w = central_difference(lambda a: logistic_loss_and_grad(a[0], b, X, y, 0.01)[0], [w], 0)
    fd_b = central_difference(lambda a: logistic_loss_and_grad(w, a[0][0], X, y, 0.01)[0],
                              [np.array([b])], 0)[0]
    assert relative_error(grad_w, fd_w) < 1e-4
    assert abs(grad_b - fd_b) / max(abs(grad_b), 1e-12) < 1e-4


def test_mlp_gradient_matches_finite_differences():
    rng = np.random.default_rng(31)
    X = rng.normal(size=(10, 3))
    y = rng.integers(0, 2, 10).astype(float)
    params = list(init_params(3, 4, seed=5))
    _, grads = loss_and_grad(params, X, y)
    for index in range(4):
        def f(args, index=index):
            trial = list(params)
            trial[index] = args[0]
            return loss_and_grad(trial, X, y)[0]

        fd = central_difference(f, [np.atleast_1d(np.array(params[index], dtype=float))], 0)
        analytic = np.atleast_1d(np.array(grads[index]))
        assert relative_error(analytic, fd.reshape(analytic.shape)) < 1e-4


def test_single_class_training_rejected():
    X = np.zeros((4, 2))
    with pytest.raises(FitError, match="single class"):
        fit(LearnerSpec("cart"), X, np.array([1, 1, 1, 1]))


def test_unknown_hyperparameter_rejected():
    with pytest.raises(FitError, match="unknown hyperparameter"):
        LearnerSpec("knn", {"neighbors": 3})


def test_invalid_hyperparameter_value_rejected():
    # Values are checked when the spec is built, so no fit meets one.
    with pytest.raises(FitError, match="positive integer"):
        LearnerSpec("random_forest", {"n_estimators": 0})
    # A bool is neither an integer nor a real.
    for algorithm, hyper in [("knn", {"k": True}), ("gbm", {"n_estimators": True}),
                             ("gbm", {"learning_rate": True})]:
        with pytest.raises(FitError, match="must be"):
            LearnerSpec(algorithm, hyper)
    with pytest.raises(FitError, match="seed"):
        LearnerSpec("knn", {}, seed=True)
    # Real hyperparameters must be finite numbers within +-PARAMETER_BOUND.
    for algorithm, hyper in [("gbm", {"learning_rate": float("inf")}),
                             ("gbm", {"learning_rate": "0.5"}),
                             ("xgb_style", {"reg_lambda": float("nan")}),
                             ("xgb_style", {"gamma": float("inf")}),
                             ("naive_bayes", {"var_floor": float("inf")}),
                             ("sgd_logistic", {"decay": float("inf")}),
                             ("linear_svc", {"l2": float("inf")}),
                             ("sgd_logistic", {"learning_rate": 1e200}),
                             ("mlp", {"momentum": float("nan")})]:
        with pytest.raises(FitError, match="finite number"):
            LearnerSpec(algorithm, hyper)


def test_knn_k_larger_than_train_rejected():
    X = np.array([[0.0], [1.0], [2.0]])
    with pytest.raises(FitError, match="exceeds"):
        fit(LearnerSpec("knn", {"k": 5}), X, np.array([0, 1, 0]))


def test_prediction_schema_width_checked(train_data):
    X, y = train_data
    model = fit(small_spec("cart"), X, y)
    with pytest.raises(FitError, match="features"):
        model.predict(np.zeros((3, X.shape[1] + 1)))


def loop_sgd(X, y, loss, epochs, eta0, decay, l2, seed):
    """The per-step SGD loop that _sgd replaced, kept as its oracle."""
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    y_signed = 2.0 * y - 1.0
    t = 0
    for epoch in range(epochs):
        order = stream(seed, "epoch", epoch).permutation(n)
        for i in order:
            eta = eta0 / (1.0 + decay * t)
            t += 1
            x = X[i]
            margin = float(x @ w) + b
            if loss == "logistic":
                p = 1.0 / (1.0 + np.exp(-margin)) if margin >= 0 else (
                    np.exp(margin) / (1.0 + np.exp(margin)))
                gfac = p - y[i]
            else:  # hinge subgradient
                gfac = -y_signed[i] if y_signed[i] * margin < 1.0 else 0.0
            if l2:
                w *= 1.0 - eta * l2
            if gfac:
                w -= (eta * gfac) * x
                b -= eta * gfac
    return w, b


@pytest.mark.parametrize("loss", ["logistic", "hinge"])
@pytest.mark.parametrize("d", [1, 4, 11])
@pytest.mark.parametrize("meta", [False, True])
def test_sgd_equals_per_step_loop(loss, d, meta):
    rng = np.random.default_rng(100 * d + meta)
    n = 97
    y = rng.integers(0, 2, n)
    if meta:
        # Like the stack meta's input: standardized base probabilities, with
        # ties, exact 0 and 1, and columns that mostly agree with y.
        p = np.clip(y[:, None] * 0.6 + rng.uniform(0.0, 0.6, (n, d)), 0.0, 1.0)
        X = fit_standardizer(np.round(p, 2)).apply(np.round(p, 2))
    else:
        X = rng.normal(size=(n, d))
    for l2 in (0.0, 1e-4):
        for decay in (0.0, 0.002):
            want = loop_sgd(X, y, loss, 4, 0.5, decay, l2, 7)
            got = _sgd(X, y, loss, 4, 0.5, decay, l2, 7)
            assert got[0].tobytes() == want[0].tobytes()
            assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()
