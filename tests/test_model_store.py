import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
    # An alternating staircase in the first of the schema's 11 columns, the
    # rest constant: every cut ties at zero gain, so CART peels one row per
    # level and the tree reaches depth 999.
    X = np.zeros((1000, 11))
    X[:, 0] = np.arange(1000)
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
    "value_huge": _set("value", _first_leaf, 1e308),
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
    # Finite but huge: scoring would overflow and label rows wrongly.
    "value_huge": lambda p: p["X_train"][0].__setitem__(0, 1e308),
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
    "mean_huge": lambda s: s["mean"].__setitem__(0, -1e308),
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


def _cut(field, n):
    return lambda p: p.__setitem__(field, p[field][:n])


def _set_entry(field, value):
    def mutate(p):
        target = p[field]
        while isinstance(target[0], list):
            target = target[0]
        target[0] = value
    return mutate


# (algorithm, mutation of the document's params)
PARAMS_MUTATIONS = {
    "naive_bayes-variances_zero": ("naive_bayes", lambda p: p.__setitem__(
        "variances", [[0.0] * len(row) for row in p["variances"]])),
    "naive_bayes-variance_negative": ("naive_bayes", _set_entry("variances", -1.0)),
    "naive_bayes-variance_nan": ("naive_bayes", _set_entry("variances", float("nan"))),
    "naive_bayes-means_3_columns": ("naive_bayes", lambda p: p.__setitem__(
        "means", [row[:3] for row in p["means"]])),
    "naive_bayes-mean_infinite": ("naive_bayes", _set_entry("means", float("inf"))),
    "naive_bayes-one_prior": ("naive_bayes", _cut("log_priors", 1)),
    "naive_bayes-prior_nan": ("naive_bayes", _set_entry("log_priors", float("nan"))),
    "sgd_logistic-weights_1_entry": ("sgd_logistic", _cut("weights", 1)),
    "sgd_logistic-weight_nan": ("sgd_logistic", _set_entry("weights", float("nan"))),
    "sgd_logistic-weights_nested": ("sgd_logistic", lambda p: p.__setitem__(
        "weights", [p["weights"]])),
    "sgd_logistic-bias_nan": ("sgd_logistic", lambda p: p.__setitem__("bias", float("nan"))),
    "sgd_logistic-weight_huge": ("sgd_logistic", _set_entry("weights", 1e308)),
    "linear_svc-bias_infinite": ("linear_svc", lambda p: p.__setitem__("bias", float("inf"))),
    "mlp-W2_2_entries": ("mlp", _cut("W2", 2)),
    "mlp-W1_rows_missing": ("mlp", _cut("W1", 3)),
    "mlp-W1_flat": ("mlp", lambda p: p.__setitem__("W1", p["W1"][0])),
    "mlp-b1_long": ("mlp", lambda p: p["b1"].append(0.0)),
    "mlp-W1_nan": ("mlp", _set_entry("W1", float("nan"))),
    "mlp-b2_infinite": ("mlp", lambda p: p.__setitem__("b2", float("-inf"))),
}


@pytest.mark.parametrize("mutation", sorted(PARAMS_MUTATIONS))
def test_hostile_model_params_rejected(mutation, train_data, tmp_path, dataset_csv):
    algorithm, mutate = PARAMS_MUTATIONS[mutation]
    X, y = train_data
    doc = json.loads(save_model(fit(LearnerSpec(algorithm, SMALL.get(algorithm, {})), X, y)))
    mutate(doc["payload"]["params"])
    _assert_rejected(json.dumps(doc).encode("utf8"), tmp_path, dataset_csv)


def _meta_reads_three(p):
    meta = p["meta"]
    meta["n_features_in"] = 3
    meta["params"]["weights"].append(0.5)
    for field, value in (("mean", 0.5), ("std", 1.0), ("constant", False)):
        meta["standardizer"][field].append(value)


def _bases_disagree(p):
    p["bases"][1] = json.loads(json.dumps(p["bases"][0]))
    p["bases"][1]["n_features_in"] = 12


def _selected(indices):
    return lambda p: p["selection"].__setitem__("selected_indices", indices)


STACK_MUTATIONS = {
    "meta_weights_1_entry": lambda p: p["meta"]["params"].__setitem__(
        "weights", p["meta"]["params"]["weights"][:1]),
    "meta_reads_three_bases": _meta_reads_three,
    "base_dropped": lambda p: p["bases"].pop(),
    "bases_disagree_on_features": _bases_disagree,
    "selected_repeated": _selected([0, 0]),
    "selected_out_of_range": _selected([0, 9]),
    "selected_negative": _selected([-1, 0]),
    "selected_short": _selected([0]),
}


@pytest.fixture(scope="module")
def stack_document(train_data):
    config = StackingConfig(
        candidates=(LearnerSpec("cart"), LearnerSpec("naive_bayes"), LearnerSpec("knn", {"k": 3})),
        top_n=2, meta=LearnerSpec("sgd_logistic", {"epochs": 10}), oof_folds=4, seed=6,
    )
    return json.loads(save_model(fit_stack(config, *train_data)))


@pytest.mark.parametrize("mutation", sorted(STACK_MUTATIONS))
def test_hostile_stack_document_rejected(mutation, stack_document, tmp_path, dataset_csv):
    doc = json.loads(json.dumps(stack_document))
    STACK_MUTATIONS[mutation](doc["payload"])
    _assert_rejected(json.dumps(doc).encode("utf8"), tmp_path, dataset_csv)


SPEC_MUTATIONS = {
    "unknown_algorithm": lambda spec: spec.update(algorithm="nope"),
    "unknown_hyperparameter": lambda spec: spec.update(hyperparameters={"bogus": 1}),
}


@pytest.mark.parametrize("mutation", sorted(SPEC_MUTATIONS))
def test_bad_spec_in_single_document_rejected(mutation, train_data, tmp_path, dataset_csv):
    X, y = train_data
    doc = json.loads(save_model(fit(LearnerSpec("naive_bayes"), X, y)))
    SPEC_MUTATIONS[mutation](doc["payload"]["spec"])
    _assert_rejected(json.dumps(doc).encode("utf8"), tmp_path, dataset_csv)


@pytest.mark.parametrize("mutation", sorted(SPEC_MUTATIONS))
def test_bad_spec_in_stack_selection_rejected(mutation, stack_document, tmp_path, dataset_csv):
    doc = json.loads(json.dumps(stack_document))
    SPEC_MUTATIONS[mutation](doc["payload"]["selection"]["entries"][0]["spec"])
    _assert_rejected(json.dumps(doc).encode("utf8"), tmp_path, dataset_csv)


@pytest.fixture(scope="module")
def ten_feature_payload(train_data):
    """A consistent naive_bayes model fitted on 10 of the schema's 11 columns."""
    X, y = train_data
    return json.loads(save_model(fit(LearnerSpec("naive_bayes"), X[:, :10], y)))["payload"]


def test_single_model_reading_other_than_schema_columns_rejected(
        ten_feature_payload, train_data, tmp_path, dataset_csv):
    X, y = train_data
    doc = json.loads(save_model(fit(LearnerSpec("naive_bayes"), X, y)))
    doc["payload"] = ten_feature_payload
    _assert_rejected(json.dumps(doc).encode("utf8"), tmp_path, dataset_csv)


def test_stack_bases_reading_other_than_schema_columns_rejected(
        ten_feature_payload, stack_document, tmp_path, dataset_csv):
    doc = json.loads(json.dumps(stack_document))
    doc["payload"]["bases"] = [ten_feature_payload] * len(doc["payload"]["bases"])
    _assert_rejected(json.dumps(doc).encode("utf8"), tmp_path, dataset_csv)


@pytest.mark.parametrize("field", ["n_features_in", "seed"])
def test_overflowing_integer_rejected(field, train_data, tmp_path, dataset_csv):
    # 1e400 parses as infinity, which int() cannot convert.
    X, y = train_data
    doc = json.loads(save_model(fit(LearnerSpec("naive_bayes"), X, y)))
    target = doc["payload"] if field == "n_features_in" else doc["payload"]["spec"]
    target[field] = "OVERFLOW"
    text = json.dumps(doc).replace('"OVERFLOW"', "1e400")
    _assert_rejected(text.encode("utf8"), tmp_path, dataset_csv)


FUZZ_CANDIDATES = (LearnerSpec("cart", {"max_depth": 3}), LearnerSpec("gbm", {"n_estimators": 2}),
                   LearnerSpec("random_forest", {"n_estimators": 2}),
                   LearnerSpec("adaboost", {"n_estimators": 2}), LearnerSpec("naive_bayes"),
                   LearnerSpec("knn", {"k": 3}), LearnerSpec("mlp", {"epochs": 5}),
                   LearnerSpec("linear_svc", {"epochs": 5}))


@pytest.fixture(scope="module")
def fuzz_case(train_data, dataset_csv, tmp_path_factory):
    """A directory with a micro stack over one base of each model kind and a
    short input."""
    config = StackingConfig(candidates=FUZZ_CANDIDATES, top_n=len(FUZZ_CANDIDATES),
                            meta=LearnerSpec("sgd_logistic", {"epochs": 5}), oof_folds=2, seed=3)
    root = tmp_path_factory.mktemp("fuzz")
    lines = dataset_csv.read_text().splitlines()
    (root / "input.csv").write_text("\n".join(lines[:6]) + "\n")
    (root / "stack.model").write_bytes(save_model(fit_stack(config, *train_data)))
    return root


def _nodes(value, path=()):
    """Every (path, value) in a parsed JSON document, containers included."""
    yield path, value
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _replace(doc, path, new):
    if not path:
        return new
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return doc


ODD_NUMBERS = (float("nan"), float("inf"), -float("inf"), 1e308, -1e308, -1, -0.5, 0, 2**63)


def hostile_document(data, doc) -> bytes:
    """One to three mutations of a parsed document, drawn from ``data``: a
    list cut short, a number made odd, a value nested deeper in lists, or a
    value of another type. Deep nesting is spliced into the text, so the
    document itself stays shallow."""
    deep = {}
    for _ in range(data.draw(st.integers(1, 3))):
        nodes = list(_nodes(doc))
        kind = data.draw(st.sampled_from(["truncate", "number", "deepen", "retype"]))
        if kind == "truncate":
            nodes = [(p, v) for p, v in nodes if isinstance(v, list) and v]
        elif kind == "number":
            nodes = [(p, v) for p, v in nodes
                     if isinstance(v, (int, float)) and not isinstance(v, bool)]
        if not nodes:
            continue
        path, value = nodes[data.draw(st.integers(0, len(nodes) - 1))]
        if kind == "truncate":
            new = value[:data.draw(st.integers(0, len(value) - 1))]
        elif kind == "number":
            new = data.draw(st.sampled_from(ODD_NUMBERS + (-value, value + 1)))
        elif kind == "deepen":
            new = f"deep-{len(deep)}"
            deep[new] = (value, data.draw(st.sampled_from([1, 2, 50, 3000])))
        else:
            new = data.draw(st.sampled_from([None, "x", True, {}, [], [0.5]]))
        doc = _replace(doc, path, new)
    text = json.dumps(doc)
    for mark, (value, depth) in deep.items():
        text = text.replace(json.dumps(mark), "[" * depth + json.dumps(value) + "]" * depth)
    return text.encode("utf8")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_hostile_documents_never_escape_predict(data, fuzz_case):
    root = fuzz_case
    doc = json.loads((root / "stack.model").read_bytes())
    (root / "hostile.model").write_bytes(hostile_document(data, doc))
    argv = ["predict", "--model", str(root / "hostile.model"), "--input",
            str(root / "input.csv"), "--output", str(root / "p.csv")]
    assert main(argv) in (0, 5)
