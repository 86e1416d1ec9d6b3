import json

import numpy as np
import pytest

from conftest import random_classification
from heartstack.cli import main
from heartstack.errors import ModelFormatError, SchemaMismatchError
from heartstack.learners import ALGORITHMS, LearnerSpec, fit
from heartstack.model_store import load_model, require_matching_schema, save_model
from heartstack.stacking import StackingConfig, fit_stack

SMALL = {"random_forest": {"n_estimators": 8}, "extra_trees": {"n_estimators": 8},
         "gbm": {"n_estimators": 8}, "xgb_style": {"n_estimators": 8},
         "adaboost": {"n_estimators": 6}, "mlp": {"epochs": 40},
         "sgd_logistic": {"epochs": 15}, "linear_svc": {"epochs": 15}}


@pytest.fixture(scope="module")
def train_data():
    rng = np.random.default_rng(99)
    X = rng.normal(size=(40, 11))
    w = rng.normal(size=11)
    y = (X @ w > 0).astype(np.int64)
    y[:2] = (0, 1)
    return X, y


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_round_trip_product_is_bit_identical(algorithm, train_data, tmp_path):
    X, y = train_data
    model = fit(LearnerSpec(algorithm, SMALL.get(algorithm, {}), seed=4), X, y)
    path = tmp_path / f"{algorithm}.model"
    save_model(model, path)
    loaded = load_model(path)
    queries = np.random.default_rng(0).normal(size=(100, 11))
    assert np.array_equal(model.predict_proba(queries), loaded.predict_proba(queries))
    assert np.array_equal(model.predict(queries), loaded.predict(queries))


def test_resave_is_byte_identical(train_data):
    X, y = train_data
    model = fit(LearnerSpec("cart", {}, seed=1), X, y)
    first = save_model(model)
    again = save_model(load_model(first))
    assert first == again


def test_forest_document_counts_trees(train_data):
    X, y = train_data
    model = fit(LearnerSpec("random_forest", {"n_estimators": 500, "max_depth": 2}, seed=2),
                X, y)
    doc = json.loads(save_model(model))
    assert doc["kind"] == "single"
    assert len(doc["payload"]["params"]["trees"]["roots"]) == 500


def test_stacked_document_sections(train_data):
    X, y = train_data
    config = StackingConfig(
        candidates=(LearnerSpec("cart"), LearnerSpec("naive_bayes"), LearnerSpec("knn", {"k": 3})),
        top_n=2, meta=LearnerSpec("sgd_logistic", {"epochs": 10}), oof_folds=4, seed=6,
    )
    stack = fit_stack(config, X, y)
    data = save_model(stack)
    doc = json.loads(data)
    assert doc["kind"] == "stacked"
    assert len(doc["payload"]["bases"]) == 2
    assert "meta" in doc["payload"]
    loaded = load_model(data)
    queries = np.random.default_rng(1).normal(size=(30, 11))
    assert np.array_equal(stack.predict_proba(queries), loaded.predict_proba(queries))


def test_truncated_document_rejected(train_data):
    X, y = train_data
    data = save_model(fit(LearnerSpec("cart"), X, y))
    with pytest.raises(ModelFormatError, match="corrupted"):
        load_model(data[: len(data) // 2])


def test_future_version_rejected(train_data):
    X, y = train_data
    doc = json.loads(save_model(fit(LearnerSpec("cart"), X, y)))
    doc["format_version"] = 99
    with pytest.raises(ModelFormatError, match="format_version"):
        load_model(json.dumps(doc).encode("utf8"))


def test_non_model_json_rejected():
    with pytest.raises(ModelFormatError):
        load_model(b'{"hello": 1}')


def test_fingerprint_mismatch_detected(train_data):
    X, y = train_data
    doc = json.loads(save_model(fit(LearnerSpec("cart"), X, y)))
    doc["schema"]["fingerprint"] = "0000000000000000"
    loaded = load_model(json.dumps(doc).encode("utf8"))
    with pytest.raises(SchemaMismatchError):
        require_matching_schema(loaded)


def test_standardizer_survives_round_trip(train_data):
    X, y = train_data
    model = fit(LearnerSpec("knn", {"k": 3}, seed=1), X, y)
    loaded = load_model(save_model(model))
    assert loaded.standardizer is not None
    assert np.array_equal(loaded.standardizer.mean, model.standardizer.mean)


def test_deep_tree_round_trips(tmp_path):
    # An alternating 1-D staircase: every cut ties at zero gain, so CART
    # peels one row per level and the tree reaches depth 999.
    X = np.arange(1000, dtype=np.float64)[:, None]
    y = np.arange(1000) % 2
    model = fit(LearnerSpec("cart"), X, y)
    path = tmp_path / "deep.model"
    save_model(model, path)
    loaded = load_model(path)
    assert np.array_equal(model.predict_proba(X), loaded.predict_proba(X))
    assert (loaded.predict(X) == y).all()
    trees = loaded.trees
    depth = np.zeros(trees.n_nodes, dtype=np.int64)
    for i in np.flatnonzero(trees.left != -1):  # parents are numbered first
        depth[trees.left[i]] = depth[trees.right[i]] = depth[i] + 1
    assert depth.max() == 999


def _first_grandchild_parent(t):
    """An inner node whose parent is inner too: (node, parent)."""
    for parent in range(len(t["left"])):
        child = t["left"][parent]
        if child != -1 and t["left"][child] != -1:
            return child, parent
    raise AssertionError("tree too shallow for this mutation")


def _set(field, at, value):
    def mutate(t):
        index = at(t) if callable(at) else at
        t[field][index] = value
    return mutate


def _child_to_parent(t):
    node, parent = _first_grandchild_parent(t)
    t["right"][node] = parent


def _first_leaf(t):
    return t["left"].index(-1)


TREE_MUTATIONS = {
    "ragged_arrays": lambda t: t["threshold"].pop(),
    "child_out_of_range": lambda t: t["left"].__setitem__(0, len(t["left"])),
    "child_is_itself": _set("left", 0, 0),
    "child_points_back_at_parent": _child_to_parent,
    "single_child": _set("right", _first_leaf, 1),
    "feature_negative": _set("feature", 0, -1),
    "feature_out_of_range": _set("feature", 0, 11),
    "fractional_index": _set("feature", 0, 0.5),
    "threshold_nan": _set("threshold", 0, float("nan")),
    "value_infinite": _set("value", _first_leaf, float("inf")),
    "root_out_of_range": lambda t: t["roots"].__setitem__(0, len(t["left"])),
    "no_roots": lambda t: t["roots"].clear(),
}


@pytest.fixture(scope="module")
def tree_document(train_data):
    X, y = train_data
    return json.loads(save_model(fit(LearnerSpec("gbm", {"n_estimators": 3}), X, y)))


def _assert_rejected(data: bytes, tmp_path, dataset_csv):
    with pytest.raises(ModelFormatError):
        load_model(data)
    path = tmp_path / "hostile.model"
    path.write_bytes(data)
    argv = ["predict", "--model", str(path), "--input", str(dataset_csv),
            "--output", str(tmp_path / "p.csv")]
    assert main(argv) == 5


@pytest.mark.parametrize("mutation", sorted(TREE_MUTATIONS))
def test_hostile_tree_arrays_rejected(mutation, tree_document, tmp_path, dataset_csv):
    doc = json.loads(json.dumps(tree_document))
    TREE_MUTATIONS[mutation](doc["payload"]["params"]["trees"])
    _assert_rejected(json.dumps(doc).encode("utf8"), tmp_path, dataset_csv)


@pytest.mark.parametrize("field", ["learning_rate", "init_score"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_boosting_parameters_rejected(field, value, tree_document, tmp_path,
                                                 dataset_csv):
    doc = json.loads(json.dumps(tree_document))
    doc["payload"]["params"][field] = value
    _assert_rejected(json.dumps(doc).encode("utf8"), tmp_path, dataset_csv)


KNN_MUTATIONS = {
    "k_zero": lambda p: p.__setitem__("k", 0),
    "k_above_rows": lambda p: p.__setitem__("k", len(p["y_train"]) + 1),
    "k_fractional": lambda p: p.__setitem__("k", 2.5),
    "k_boolean": lambda p: p.__setitem__("k", True),
    "row_missing": lambda p: p["X_train"].pop(),
    "column_missing": lambda p: [row.pop() for row in p["X_train"]],
    "value_nan": lambda p: p["X_train"][0].__setitem__(0, float("nan")),
    "label_out_of_range": lambda p: p["y_train"].__setitem__(0, 7),
    "label_fractional": lambda p: p["y_train"].__setitem__(0, 0.5),
}


@pytest.mark.parametrize("mutation", sorted(KNN_MUTATIONS))
def test_hostile_knn_document_rejected(mutation, train_data, tmp_path, dataset_csv):
    X, y = train_data
    doc = json.loads(save_model(fit(LearnerSpec("knn", {"k": 3}), X, y)))
    KNN_MUTATIONS[mutation](doc["payload"]["params"])
    _assert_rejected(json.dumps(doc).encode("utf8"), tmp_path, dataset_csv)


def test_deeply_nested_document_rejected(tmp_path, dataset_csv):
    depth = 100_000
    data = b'{"format_version": 2, "payload": ' + b"[" * depth + b"]" * depth + b"}"
    _assert_rejected(data, tmp_path, dataset_csv)


def test_format_1_document_rejected(tree_document, tmp_path, dataset_csv):
    doc = json.loads(json.dumps(tree_document))
    doc["format_version"] = 1
    _assert_rejected(json.dumps(doc).encode("utf8"), tmp_path, dataset_csv)


def test_adaboost_needs_one_alpha_per_stump(train_data):
    X, y = train_data
    doc = json.loads(save_model(fit(LearnerSpec("adaboost", {"n_estimators": 3}), X, y)))
    doc["payload"]["params"]["alphas"].append(1.0)
    with pytest.raises(ModelFormatError, match="alpha"):
        load_model(json.dumps(doc).encode("utf8"))


STANDARDIZER_MUTATIONS = {
    "mean_short": lambda s: s.__setitem__("mean", s["mean"][:3]),
    "mean_and_std_short": lambda s: s.update(mean=s["mean"][:3], std=s["std"][:3]),
    "std_long": lambda s: s["std"].append(1.0),
    "constant_short": lambda s: s["constant"].pop(),
    "mean_nan": lambda s: s["mean"].__setitem__(0, float("nan")),
    "mean_infinite": lambda s: s["mean"].__setitem__(0, float("-inf")),
    "std_zero": lambda s: s["std"].__setitem__(0, 0.0),
    "std_negative": lambda s: s["std"].__setitem__(0, -1.0),
    "std_infinite": lambda s: s["std"].__setitem__(0, float("inf")),
    "std_nan": lambda s: s["std"].__setitem__(0, float("nan")),
    "nested": lambda s: s.__setitem__("mean", [s["mean"]]),
}


@pytest.mark.parametrize("mutation", sorted(STANDARDIZER_MUTATIONS))
def test_hostile_standardizer_rejected(mutation, train_data, tmp_path, dataset_csv):
    X, y = train_data
    doc = json.loads(save_model(fit(LearnerSpec("knn", {"k": 3}), X, y)))
    STANDARDIZER_MUTATIONS[mutation](doc["payload"]["standardizer"])
    _assert_rejected(json.dumps(doc).encode("utf8"), tmp_path, dataset_csv)
