import base64
import hashlib
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import random_classification
from heartstack.cli import main
from heartstack.errors import FitError, ModelFormatError, SchemaMismatchError
from heartstack.learners import ALGORITHMS, LearnerSpec, fit
from heartstack.learners.base import pack, unpack
from heartstack.learners.forest import TreeEnsembleModel
from heartstack.learners.tree import TreeBlock
from heartstack.model_store import _single_payload, load_model, save_model
from heartstack.schema import CANONICAL_SCHEMA, SCHEMA_FINGERPRINT
from heartstack.model_selection import k_fold_plan
from heartstack.stacking import StackedModel, StackingConfig, fit_stack, select_base_learners

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
    assert len(unpack(doc["payload"]["params"]["trees"]["roots"], "<i4")) == 500


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


def test_fingerprint_mismatch_detected(train_data, tmp_path, dataset_csv):
    X, y = train_data
    doc = json.loads(save_model(fit(LearnerSpec("cart"), X, y)))
    doc["schema"]["fingerprint"] = "0000000000000000"
    with pytest.raises(SchemaMismatchError):
        load_model(json.dumps(doc).encode("utf8"))
    path = tmp_path / "other_schema.model"
    path.write_text(json.dumps(doc))
    assert main(["predict", "--model", str(path), "--input", str(dataset_csv),
                 "--output", str(tmp_path / "p.csv")]) == 4


def test_schema_fingerprint_is_the_hash_of_the_schema():
    text = "|".join(f"{s.name}:{s.kind}" for s in CANONICAL_SCHEMA)
    assert SCHEMA_FINGERPRINT == hashlib.sha256(text.encode("utf8")).hexdigest()[:16]


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
        depth[trees.left[i]] = depth[trees.left[i] + 1] = depth[i] + 1
    assert depth.max() == 999


TREE_LEARNERS = ("cart", "random_forest", "extra_trees", "gbm", "xgb_style", "adaboost")


@pytest.mark.parametrize("algorithm", TREE_LEARNERS)
def test_tree_block_round_trips_field_for_field(algorithm, train_data):
    model = fit(LearnerSpec(algorithm, SMALL.get(algorithm, {}), seed=4), *train_data)
    trees = model.trees
    # Compaction drops what every grower writes the same way: leaves (feature
    # -1) have threshold +0.0, inner nodes value +0.0.
    leaf = trees.feature == -1
    assert leaf.any() and (~leaf).any()
    zero = np.zeros(1).tobytes()
    assert trees.threshold[leaf].tobytes() == zero * leaf.sum()
    assert trees.value[~leaf].tobytes() == zero * (~leaf).sum()
    for loaded in (load_model(save_model(model)).trees,
                   TreeBlock.from_dict(trees.to_dict(11), 11)):
        assert_same_block(trees, loaded)


def assert_same_block(a, b):
    for name in ("feature", "threshold", "left", "value", "roots"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), name


def test_leaf_codebook_keeps_signed_zeros_and_sorts_by_value():
    # Two trees: a stump and a lone leaf; leaves -0.0, 0.0 and -2.5.
    block = TreeBlock(np.array([3, -1, -1, -1]), np.array([0.5, 0.0, 0.0, 0.0]),
                      np.array([0.0, -0.0, 0.0, -2.5]), np.array([0, 3]))
    d = block.to_dict(11)
    assert unpack(d["leaf_values"], "<f8").tobytes() == np.array([-2.5, 0.0, -0.0]).tobytes()
    assert unpack(d["leaves"], "<u1").tolist() == [2, 1, 0]
    assert_same_block(block, TreeBlock.from_dict(d, 11))
    # 300 features need two bytes per feature, 300 distinct leaves two per index.
    wide = TreeBlock.concat([block] + [TreeBlock(np.array([-1]), np.zeros(1),
                                                 np.array([float(v)]), np.zeros(1, np.intp))
                                       for v in range(300)])
    d = wide.to_dict(300)
    assert len(base64.b64decode(d["feature"])) == 2
    assert len(base64.b64decode(d["leaves"])) == 2 * (3 + 300)
    assert_same_block(wide, TreeBlock.from_dict(d, 300))


@pytest.mark.parametrize("feature", [[0, -1, -1, -1, -1], [0, -1], [-1, 0, -1]])
def test_blocks_breaking_the_numbering_invariant_are_not_written(feature, tmp_path):
    # A tree of five nodes with one inner node, a split without its right
    # child, and a leaf root followed by an inner node.
    feature = np.array(feature)
    block = TreeBlock(feature, np.zeros(len(feature)), np.zeros(len(feature)),
                      np.zeros(1, dtype=np.intp))
    with pytest.raises(ValueError, match="twice its inner|not after its parent"):
        block.left
    model = TreeEnsembleModel(LearnerSpec("cart"), 11, block)
    with pytest.raises(FitError, match="cannot be saved"):
        save_model(model, tmp_path / "bad.model")
    assert not (tmp_path / "bad.model").exists()


def test_pack_round_trips_and_rejects():
    assert unpack(pack([3, -1, 2**31 - 1], "<i4"), "<i4").tolist() == [3, -1, 2**31 - 1]
    a = unpack(pack([0.1, -0.0, 1e-300], "<f8"), "<f8")
    assert a.dtype == np.float64 and a.flags.writeable
    assert a.tobytes() == np.array([0.1, -0.0, 1e-300]).tobytes()
    assert unpack(pack([], "<i4"), "<i4").dtype == np.intp
    with pytest.raises(ValueError):
        pack([2**31], "<i4")
    with pytest.raises(ValueError):
        pack([-2**31 - 1], "<i4")
    # Invalid base64 (a character outside ASCII, bad padding), or bytes
    # that are not whole entries.
    for text, dtype in (("é", "<f8"), (pack([1], "<i4")[:-1], "<i4"),
                        (base64.b64encode(bytes(12)).decode(), "<f8")):
        with pytest.raises(ValueError):
            unpack(text, dtype)


def _set(field, at, value):
    def mutate(t):
        t[field][at] = value
    return mutate


# The dtype of each packed field of tree and k-NN documents. The tree
# documents here have 11 features and fewer than 257 distinct leaf values,
# so features and leaf indices take one byte; "inner" is a bitmap.
PACKED = {"inner": "<u1", "feature": "<u1", "threshold": "<f8", "leaf_values": "<f8",
          "leaves": "<u1", "roots": "<i4", "X_train": "<f8", "y_train": "<i4"}


def _repacked(mutate):
    """``mutate`` applied to a block whose packed fields are unpacked into
    lists (a tree's inner-node bitmap one 0/1 entry per node, k-NN rows
    nested one list per row), with the fields packed again afterwards."""
    def apply(block):
        fields = {name: unpack(block[name], PACKED[name]) for name in block if name in PACKED}
        if "inner" in fields:
            n = len(fields["threshold"]) + len(fields["leaves"])
            fields["inner"] = np.unpackbits(fields["inner"].astype(np.uint8),
                                            bitorder="little")[:n]
        if "X_train" in fields:
            fields["X_train"] = fields["X_train"].reshape(len(fields["y_train"]), -1)
        block.update({name: a.tolist() for name, a in fields.items()})
        mutate(block)
        if "inner" in fields:
            block["inner"] = np.packbits(np.array(block["inner"], dtype=np.uint8),
                                         bitorder="little")
        block.update({name: pack(block[name], PACKED[name]) for name in fields})
    return apply


def _set_packed(field, text):
    """Replace a packed field by ``text``, or by what ``text`` makes of the
    field's current string when it is callable."""
    def mutate(block):
        block[field] = text(block[field]) if callable(text) else text
    return mutate


def _cut_bytes(n):
    return lambda text: base64.b64encode(base64.b64decode(text)[:-n]).decode("ascii")


def _as_list(field):
    return lambda text: unpack(text, PACKED[field]).tolist()


def _first_tree_end(t):
    return t["roots"][1] if len(t["roots"]) > 1 else len(t["inner"])


def _last_inner_to_last_node(t):
    """The first tree's last inner node made its last node, a leaf: that
    node's derived children are the one before it and itself."""
    end = _first_tree_end(t)
    last = max(i for i in range(end) if t["inner"][i])
    t["inner"][last], t["inner"][end - 1] = 0, 1


def _leaf_made_inner(t):
    """A leaf of the first tree made inner, with a feature and threshold
    and without its leaf index: its derived children run past its tree."""
    end = _first_tree_end(t)
    t["inner"][max(i for i in range(end) if not t["inner"][i])] = 1
    t["feature"].append(0)
    t["threshold"].append(0.0)
    t["leaves"].pop()


def one_tree(inner):
    """A mutation replacing the block by one tree with these inner-node
    bits, splits on feature 0 at 0.0 and every leaf 0.5."""
    def mutate(t):
        m = sum(inner)
        t.update(inner=list(inner), feature=[0] * m, threshold=[0.0] * m, leaf_values=[0.5],
                 leaves=[0] * (len(inner) - m), roots=[0])
    return _repacked(mutate)


def _set_pad_bit(t):
    n = len(unpack(t["threshold"], "<f8")) + len(unpack(t["leaves"], "<u1"))
    raw = bytearray(base64.b64decode(t["inner"]))
    assert n % 8, "the block needs pad bits"
    raw[n // 8] |= 1 << n % 8
    t["inner"] = base64.b64encode(bytes(raw)).decode("ascii")


TREE_MUTATIONS = {
    # Packed content: one feature per threshold, one inner-node bit per node
    # and one leaf index per leaf, into a finite codebook.
    "ragged_arrays": _repacked(lambda t: t["threshold"].pop()),
    "feature_per_node": _repacked(lambda t: t.__setitem__("feature", [0] * len(t["inner"]))),
    "value_missing": _repacked(lambda t: t["leaves"].pop()),
    "value_per_node": _repacked(lambda t: t.__setitem__("leaves", [0] * len(t["inner"]))),
    "leaf_index_past_codebook": _repacked(lambda t: t["leaves"].__setitem__(
        0, len(t["leaf_values"]))),
    "bitmap_wrong_length": _set_packed("inner", lambda text: base64.b64encode(
        base64.b64decode(text) + b"\0").decode("ascii")),
    "bitmap_pad_bit_set": _set_pad_bit,
    "inner_count_disagrees_with_threshold": _repacked(lambda t: t["inner"].__setitem__(-1, 1)),
    "tree_size_not_twice_inner_plus_one": _repacked(lambda t: t["roots"].__setitem__(
        1, t["roots"][1] + 2)),
    # Derived children: past their tree, the node itself, before it.
    "child_out_of_range": _repacked(_leaf_made_inner),
    "child_is_itself": _repacked(_last_inner_to_last_node),
    "child_points_back_at_parent": one_tree([1, 0, 0, 0, 0, 1, 1]),
    "derived_child_not_after_parent": one_tree([1, 0, 0, 1, 0]),
    # The last tree one node short.
    "sibling_out_of_range": _repacked(lambda t: (t["inner"].pop(), t["leaves"].pop())),
    "root_at_int32_max": _repacked(_set("roots", -1, 2**31 - 1)),
    # -1's byte, 0xFF, reads as feature 255.
    "feature_negative": _repacked(_set("feature", 0, 255)),
    "feature_out_of_range": _repacked(_set("feature", 0, 11)),
    "threshold_nan": _repacked(_set("threshold", 0, float("nan"))),
    "value_infinite": _repacked(_set("leaf_values", 0, float("inf"))),
    "codebook_nan": _repacked(_set("leaf_values", 0, float("nan"))),
    "value_huge": _repacked(_set("leaf_values", 0, 1e308)),
    "codebook_beyond_bound": _repacked(_set("leaf_values", 0, 1.0000000001e100)),
    "root_out_of_range": _repacked(lambda t: t["roots"].__setitem__(-1, len(t["inner"]))),
    "no_roots": _repacked(lambda t: t["roots"].clear()),
    # The packing itself.
    "inner_not_base64": _set_packed("inner", "!!"),
    "roots_not_string": _set_packed("roots", 0),
    "inner_as_list": _set_packed("inner", _as_list("inner")),
    "threshold_as_list": _set_packed("threshold", _as_list("threshold")),
    "roots_bytes_not_whole_int32": _set_packed("roots", _cut_bytes(1)),
    "value_bytes_not_whole_float64": _set_packed("leaf_values", _cut_bytes(4)),
}


def test_one_tree_mutation_builds_a_block_that_loads(tree_document):
    doc = json.loads(json.dumps(tree_document))
    one_tree([1, 1, 0, 0, 0])(doc["payload"]["params"]["trees"])
    assert load_model(json.dumps(doc).encode("utf8")).trees.left.tolist() == [1, 3, -1, -1, -1]


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
    "k_above_rows": _repacked(lambda p: p.__setitem__("k", len(p["y_train"]) + 1)),
    "k_fractional": lambda p: p.__setitem__("k", 2.5),
    "k_boolean": lambda p: p.__setitem__("k", True),
    "row_missing": _repacked(lambda p: p["X_train"].pop()),
    "column_missing": _repacked(lambda p: [row.pop() for row in p["X_train"]]),
    "value_nan": _repacked(lambda p: p["X_train"][0].__setitem__(0, float("nan"))),
    # Finite but huge: scoring would overflow and label rows wrongly.
    "value_huge": _repacked(lambda p: p["X_train"][0].__setitem__(0, 1e308)),
    "label_out_of_range": _repacked(lambda p: p["y_train"].__setitem__(0, 7)),
    "label_missing": _repacked(lambda p: p["y_train"].pop()),
    "rows_not_base64": _set_packed("X_train", "!!"),
    "rows_as_lists": lambda p: p.__setitem__(
        "X_train", unpack(p["X_train"], "<f8").reshape(-1, 11).tolist()),
    "labels_as_list": _set_packed("y_train", _as_list("y_train")),
    "rows_bytes_not_whole_float64": _set_packed("X_train", _cut_bytes(4)),
    "labels_bytes_not_whole_int32": _set_packed("y_train", _cut_bytes(2)),
}


@pytest.mark.parametrize("mutation", sorted(KNN_MUTATIONS))
def test_hostile_knn_document_rejected(mutation, train_data, tmp_path, dataset_csv):
    X, y = train_data
    doc = json.loads(save_model(fit(LearnerSpec("knn", {"k": 3}), X, y)))
    KNN_MUTATIONS[mutation](doc["payload"]["params"])
    _assert_rejected(json.dumps(doc).encode("utf8"), tmp_path, dataset_csv)


def test_deeply_nested_document_rejected(tmp_path, dataset_csv):
    depth = 100_000
    data = b'{"format_version": 6, "payload": ' + b"[" * depth + b"]" * depth + b"}"
    _assert_rejected(data, tmp_path, dataset_csv)


def test_format_1_document_rejected(tree_document, tmp_path, dataset_csv):
    # Formats 1 (nested tree nodes), 2 (a stored right-child array), 3
    # (arrays as JSON lists), 4 (a stored left-child array and one float64
    # per leaf) and 5 (a created stamp, the schema's columns, each model's
    # n_features_in and the standardizer's constant mask) are no longer read.
    for version in (1, 2, 3, 4, 5):
        doc = json.loads(json.dumps(tree_document))
        doc["format_version"] = version
        with pytest.raises(ModelFormatError, match="train the model again"):
            load_model(json.dumps(doc).encode("utf8"))
        _assert_rejected(json.dumps(doc).encode("utf8"), tmp_path, dataset_csv)


STANDARDIZER_MUTATIONS = {
    "mean_short": lambda s: s.__setitem__("mean", s["mean"][:3]),
    "mean_and_std_short": lambda s: s.update(mean=s["mean"][:3], std=s["std"][:3]),
    "std_long": lambda s: s["std"].append(1.0),
    "std_short": lambda s: s["std"].pop(),
    "mean_nan": lambda s: s["mean"].__setitem__(0, float("nan")),
    "mean_infinite": lambda s: s["mean"].__setitem__(0, float("-inf")),
    "mean_huge": lambda s: s["mean"].__setitem__(0, -1e308),
    "std_zero": lambda s: s["std"].__setitem__(0, 0.0),
    "std_negative": lambda s: s["std"].__setitem__(0, -1.0),
    "std_infinite": lambda s: s["std"].__setitem__(0, float("inf")),
    "std_nan": lambda s: s["std"].__setitem__(0, float("nan")),
    "std_tiny": lambda s: s["std"].__setitem__(0, 1e-300),
    # Each within its own bound, but the standardized rows reach 1e200.
    "mean_over_std_huge": lambda s: (s["mean"].__setitem__(0, 1e100),
                                     s["std"].__setitem__(0, 1e-100)),
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
    "naive_bayes-variances_tiny": ("naive_bayes", lambda p: p.__setitem__(
        "variances", [[1e-300] * len(row) for row in p["variances"]])),
    "naive_bayes-variance_below_bound": ("naive_bayes", _set_entry("variances", 1e-101)),
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
    """A meta of three weights over the stack's two bases."""
    meta = p["meta"]
    meta["params"]["weights"].append(0.5)
    for field, value in (("mean", 0.5), ("std", 1.0)):
        meta["standardizer"][field].append(value)


def _bases_disagree(p):
    """The k-NN base given a 12th column, in its rows and its standardizer;
    the CART base reads the schema's 11."""
    knn = p["bases"][1]
    assert knn["spec"]["algorithm"] == "knn"
    _repacked(lambda params: [row.append(0.0) for row in params["X_train"]])(knn["params"])
    for field, value in (("mean", 0.5), ("std", 1.0)):
        knn["standardizer"][field].append(value)


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
    "bad_hyperparameter_value": lambda spec: spec.update(algorithm="naive_bayes",
                                                         hyperparameters={"var_floor": -1}),
    "fractional_seed": lambda spec: spec.update(seed=1.9),
    "bool_seed": lambda spec: spec.update(seed=True),
    "hyperparameters_as_list": lambda spec: spec.update(
        hyperparameters=list(spec["hyperparameters"].items())),
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


def _payload_of_width(algorithm, n_features, train_data):
    """The payload of a model fitted on ``n_features`` columns: the first
    ones of the schema's 11, or all of them and copies of the first."""
    X, y = train_data
    X = np.hstack([X, X])[:, :n_features]
    return json.loads(json.dumps(_single_payload(fit(LearnerSpec(algorithm, SMALL.get(
        algorithm, {})), X, y))))


OTHER_WIDTHS = [(algorithm, n) for algorithm in ("naive_bayes", "sgd_logistic") for n in (10, 12)]


@pytest.mark.parametrize("algorithm,n_features", OTHER_WIDTHS)
def test_single_model_reading_other_than_schema_columns_rejected(
        algorithm, n_features, train_data, tmp_path, dataset_csv):
    X, y = train_data
    doc = json.loads(save_model(fit(LearnerSpec(algorithm, SMALL.get(algorithm, {})), X, y)))
    doc["payload"] = _payload_of_width(algorithm, n_features, train_data)
    _assert_rejected(json.dumps(doc).encode("utf8"), tmp_path, dataset_csv)


@pytest.mark.parametrize("algorithm,n_features", OTHER_WIDTHS)
def test_stack_bases_reading_other_than_schema_columns_rejected(
        algorithm, n_features, train_data, stack_document, tmp_path, dataset_csv):
    doc = json.loads(json.dumps(stack_document))
    doc["payload"]["bases"][-1] = _payload_of_width(algorithm, n_features, train_data)
    _assert_rejected(json.dumps(doc).encode("utf8"), tmp_path, dataset_csv)


def test_save_refuses_a_model_of_another_width(train_data, tmp_path):
    # A CART fitted on 10 columns splits only on features 0 to 9, so its
    # document would load as a model of the schema's 11: save_model checks
    # the width on the fitted object.
    X, y = train_data
    narrow = fit(LearnerSpec("cart"), X[:, :10], y)
    with pytest.raises(FitError, match="cart reads 10 features, not 11"):
        save_model(narrow, tmp_path / "narrow.model")
    # A meta of three columns over two bases; a CART meta would load too.
    bases = [fit(LearnerSpec(a), X, y) for a in ("cart", "naive_bayes")]
    meta = fit(LearnerSpec("cart"), X[:, :3], y)
    selection = select_base_learners([(b.spec, 0.5) for b in bases], 2)
    stack = StackedModel(bases, meta, selection, k_fold_plan(len(y), 2, 0))
    with pytest.raises(FitError, match="the meta reads 3 features, not 2"):
        save_model(stack, tmp_path / "stack.model")
    assert not list(tmp_path.iterdir())


SINGLE_KEYS = {"spec", "standardizer", "params"}


def test_documents_hold_exactly_the_format_6_keys(train_data, stack_document):
    X, y = train_data
    single = json.loads(save_model(fit(LearnerSpec("knn", {"k": 3}), X, y)))
    for doc in (single, stack_document):
        assert set(doc) == {"format_version", "kind", "schema", "payload"}
        assert doc["format_version"] == 6 and doc["schema"] == {"fingerprint": SCHEMA_FINGERPRINT}
    assert set(single["payload"]) == SINGLE_KEYS
    assert set(single["payload"]["standardizer"]) == {"mean", "std"}
    payload = stack_document["payload"]
    assert set(payload) == {"selection", "fold_plan", "bases", "meta"}
    for model in payload["bases"] + [payload["meta"]]:
        assert set(model) == SINGLE_KEYS
        assert model["standardizer"] is None or set(model["standardizer"]) == {"mean", "std"}


@pytest.mark.parametrize("field", ["selected_indices", "seed"])
def test_overflowing_integer_rejected(field, stack_document, tmp_path, dataset_csv):
    # 1e400 parses as infinity, which int() cannot convert.
    doc = json.loads(json.dumps(stack_document))
    if field == "seed":
        doc["payload"]["meta"]["spec"]["seed"] = "OVERFLOW"
    else:
        doc["payload"]["selection"]["selected_indices"][0] = "OVERFLOW"
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


def _odd_packed(data, text, dtype) -> str:
    """A packed array with one entry made odd or its bytes cut short (always
    cut when an earlier mutation left them short of whole entries). An
    index or label takes only the odd numbers an int32 can hold."""
    raw = base64.b64decode(text)
    if not raw or len(raw) % np.dtype(dtype).itemsize or data.draw(st.booleans()):
        raw = raw[:data.draw(st.integers(0, max(len(raw) - 1, 0)))]
    else:
        a = unpack(text, dtype)
        at = data.draw(st.integers(0, len(a) - 1))
        odd = [v for v in ODD_NUMBERS + (-a[at], a[at] + 1)
               if dtype == "<f8" or (np.isfinite(v) and v == int(v) and -2**31 <= v < 2**31)]
        a[at] = data.draw(st.sampled_from(odd))
        raw = a.astype(dtype).tobytes()
    return base64.b64encode(raw).decode("ascii")


def hostile_document(data, doc) -> bytes:
    """One to three mutations of a parsed document, drawn from ``data``: a
    list cut short, a number made odd, an entry of a packed array made odd
    or its bytes cut short, a value nested deeper in lists, or a value of
    another type. Deep nesting is spliced into the text, so the document
    itself stays shallow."""
    deep = {}
    for _ in range(data.draw(st.integers(1, 3))):
        nodes = list(_nodes(doc))
        kind = data.draw(st.sampled_from(["truncate", "number", "packed", "deepen", "retype"]))
        if kind == "truncate":
            nodes = [(p, v) for p, v in nodes if isinstance(v, list) and v]
        elif kind == "number":
            nodes = [(p, v) for p, v in nodes
                     if isinstance(v, (int, float)) and not isinstance(v, bool)]
        elif kind == "packed":
            nodes = [(p, v) for p, v in nodes
                     if isinstance(v, str) and p and p[-1] in PACKED]
        if not nodes:
            continue
        path, value = nodes[data.draw(st.integers(0, len(nodes) - 1))]
        if kind == "truncate":
            new = value[:data.draw(st.integers(0, len(value) - 1))]
        elif kind == "number":
            new = data.draw(st.sampled_from(ODD_NUMBERS + (-value, value + 1)))
        elif kind == "packed":
            new = _odd_packed(data, value, PACKED[path[-1]])
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


class Replay:
    """Stands in for ``st.data()`` in an explicit example: each draw returns
    the next of the given values, which must be one its strategy can draw."""

    def __init__(self, *values):
        self.values = list(values)

    def draw(self, strategy, label=None):
        return self.values.pop(0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
# Two "packed" mutations of packed field 2, the cart base's thresholds: the
# first cuts its bytes to 3, the second finds them short of whole entries and
# cuts them to 0. _odd_packed once unpacked such bytes and raised ValueError.
@example(data=Replay(2, "packed", 2, True, 3, "packed", 2, 0))
def test_hostile_documents_never_escape_predict(data, fuzz_case):
    root = fuzz_case
    doc = json.loads((root / "stack.model").read_bytes())
    hostile = hostile_document(data, doc)
    (root / "hostile.model").write_bytes(hostile)
    argv = ["predict", "--model", str(root / "hostile.model"), "--input",
            str(root / "input.csv"), "--output", str(root / "p.csv")]
    code = main(argv)
    assert code in (0, 4, 5)
    if code == 4:
        # A schema mismatch only for a changed fingerprint on a document
        # that loads once the fingerprint is restored.
        doc = json.loads(hostile)
        doc["schema"]["fingerprint"] = SCHEMA_FINGERPRINT
        load_model(json.dumps(doc).encode("utf8"))
