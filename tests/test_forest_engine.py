"""The tree growers against recorded trees, and the forest engine against
itself.

The digests are sha256 hashes of the tree arrays of fitted models. The
forest digests were recorded with the per-tree level-wise growers the
engine replaced. Class sums are integer-valued, so growing all trees of a
forest together must reproduce every node of every tree bit for bit. The
depth-first digests (CART, gbm, AdaBoost and xgb_style) were recorded
while second-order trees still had a grower of their own; grow_tree must
reproduce them bit for bit.

The fold digests are sha256 hashes of whole ``save_model`` documents of the
depth-first learners, fitted at their default sizes on two folds of the
study's synthetic train split. They were recorded with the row-major split
kernel that sorted every node, the root included, once per tree. The
forest fold digests (25 trees, default hyperparameters otherwise) were
recorded while the forest engine still grew its trees in fixed passes, each
run until its deepest tree was done, and scored every pair position of a
level as a cut.
"""

import hashlib

import numpy as np
import pytest

from conftest import random_classification
from heartstack.cleaning import clean
from heartstack.config import DEFAULT_SEED
from heartstack.learners import LearnerSpec, fit
from heartstack.learners import tree as tree_module
from heartstack.model_selection import k_fold_plan
from heartstack.model_store import save_model
from heartstack.rng import stream
from heartstack.splitting import stratified_split
from heartstack.synthetic import generate_dataset

CASES = {
    "random_forest-gini": ("random_forest", {"criterion": "gini"}),
    "random_forest-entropy": ("random_forest", {"criterion": "entropy"}),
    "random_forest-shallow": ("random_forest", {"max_depth": 5, "min_samples_split": 20}),
    "random_forest-all_features": ("random_forest", {"max_features": None}),
    "extra_trees-gini": ("extra_trees", {"criterion": "gini"}),
    "extra_trees-entropy": ("extra_trees", {"criterion": "entropy"}),
    "extra_trees-shallow": ("extra_trees", {"max_depth": 5, "min_samples_split": 20}),
    "extra_trees-all_features": ("extra_trees", {"max_features": None}),
}
FIELDS = ("feature", "threshold", "left", "right", "value", "roots")
TREES_SHA256 = {
    "extra_trees-all_features": "1d65ab1f1c10321c8bcf631f4f1391312b87b890c6cae7cd9f95677a2e7a2d8d",
    "extra_trees-entropy": "38e3a7bb2c3a10ae45111599d80a24c4a58a9e45f834c013f2ec9bea481b042b",
    "extra_trees-gini": "8d38b7fa3ce349ee28c2e383ab0178b6d471a6c8e2e5373aaabefac2c148c9e0",
    "extra_trees-shallow": "cd1d444a1041e50cc1b62f89fbd870be3a7ba84b94500bef64ed1f7e6ba5db4e",
    "random_forest-all_features": "d7152146c4ad4f24cebd361dd55c8a8b33ceb5d9689b586f41ab447950493a1c",
    "random_forest-entropy": "5ff0f6ef0fe1e793634d03f08b47dba3db500f0cade6590d8f47d34e0f53b111",
    "random_forest-gini": "27ba5580152fdc1725fc7d0ddf3715bb919b40211fb1633bd3ba8399a6f60a4f",
    "random_forest-shallow": "fd61fce76b82d41936a5b5f476fc29d8f85ea1435c810b3e70ca687857187264",
}

# Depth-first trees: (algorithm, hyperparameters); CART has no n_estimators.
DFS_CASES = {
    "xgb_style-default": ("xgb_style", {"n_estimators": 10}),
    "xgb_style-no_lambda": ("xgb_style", {"n_estimators": 10, "reg_lambda": 0.0}),
    "xgb_style-gamma": ("xgb_style", {"n_estimators": 10, "gamma": 0.5, "max_depth": 5}),
    "xgb_style-unbounded": ("xgb_style", {"n_estimators": 10, "max_depth": None,
                                          "min_samples_split": 20}),
    "gbm-default": ("gbm", {"n_estimators": 10}),
    "adaboost-stumps": ("adaboost", {"n_estimators": 10}),
    "cart-default": ("cart", {}),
    "cart-entropy_subsample": ("cart", {"criterion": "entropy", "max_features": 3}),
}
DFS_TREES_SHA256 = {
    "adaboost-stumps": "16effc3b90ce673c6e48828ff28474690386c10c88cc5bd7ead4875e1d11952e",
    "cart-default": "877aa1b72f73b041e2ea9535e7b436cfd726dea4e846909ae38c9a93b66babcf",
    "cart-entropy_subsample": "6da871cfb2068b24876f389a6e9c2fa3f32676b0553a7c4a3a92d04ef9529849",
    "gbm-default": "06688c59d2559cfff98b2d23b86dd88c2454fbacb1a378724e999c261728bfa2",
    "xgb_style-default": "3af2f22669cdf0043804e321ea1b5a73ba18e7b99e1d6f45f0181c15fa24eb35",
    "xgb_style-gamma": "0ed2348c976fc630665f3c86290e7e105b822beedcf39ea6b1c1001b941b7d45",
    "xgb_style-no_lambda": "a2923f92439698781bfd62a044fb16e6662cf1ef07e0b29d2162221bc92fd30c",
    "xgb_style-unbounded": "a7aa39eeefd3089f36a5e31b4ea7997ebecc50cb6a68e6375a6737f9abe29e1a",
}

# Default-size fits of the depth-first learners on OOF folds of the study.
FOLD_CASES = {
    "xgb_style": ("xgb_style", {}),
    "gbm": ("gbm", {}),
    "adaboost": ("adaboost", {}),
    "cart": ("cart", {}),
    "cart-sqrt_features": ("cart", {"max_features": "sqrt"}),
}
FOLDS = (0, 7)
FOLD_DOC_SHA256 = {
    "adaboost-0": "d2f86f09f39ca920fad06d8ae777c984b123360d4ef58e70c0223e03ee161456",
    "adaboost-7": "f3f4c71643900fc644883e73bfbf43f73e2363b530e61ab815e28fbd68f165ea",
    "cart-0": "0331713e5627f67b79771d5ffd3d937c804201e528479f0c79be3b5fbceecfb6",
    "cart-7": "274dd84fb1974f9d883d8f9200de83985b3d132dc8e263cf32df859092adafd2",
    "cart-sqrt_features-0": "7d21807b50b67e3c9005fc91436ee2c758c1d3fd0d5f5a3ad7f0a81dc6b14f62",
    "cart-sqrt_features-7": "3641c846c9def8d265e7d82f5016710e31c40533bea9c1cf3b8e7679d288a398",
    "gbm-0": "e8b50b5fdaffa102167757496cdf1578955467b99d3d63ed449b81c65e633f8b",
    "gbm-7": "b475b8534552d9db9a781a248bc1a3b1d238ad0f0330ea4ed3dcdeff7bc77b02",
    "xgb_style-0": "03041beca6c16ffc8cfdb9c5be1f28d1db257573f59bb2f3e8129498b16e62c9",
    "xgb_style-7": "5ded0a292d34f8db794d87dedf1fb3b0af012da50bb6141c21c6fa7c29c16be4",
}

# 25-tree forests on the same OOF folds.
FOREST_FOLD_CASES = {
    "random_forest": ("random_forest", {"n_estimators": 25}),
    "extra_trees": ("extra_trees", {"n_estimators": 25}),
}
FOREST_FOLD_DOC_SHA256 = {
    "extra_trees-0": "d558e6f30872588b41227c44769a43ae11c035cb653ffd4c9138ccba0cd7fac7",
    "extra_trees-7": "5d5ba48a1c57fb0ccdc24167ad3259ffa96f74593a67a40b38d7fbe39d492f21",
    "random_forest-0": "e3d7c8d5eab2c9b5f281e44bb3926f4e41fea0081108caae73e672fee25f90b3",
    "random_forest-7": "8a7a23e2ff30d007e5634eba2a73345fb8222294999622ee8b8b60cac1e49de3",
}


@pytest.fixture(scope="module")
def forest_data():
    rng = np.random.default_rng(846)
    X, y = random_classification(rng, 300, 11)
    X[:, :4] = np.round(X[:, :4], 1)  # tied values exercise the midpoint rule
    X[:, 4] = rng.integers(0, 4, 300)  # a coded feature with four levels
    return X, y


def trees_digest(trees) -> str:
    h = hashlib.sha256()
    for name in FIELDS:
        h.update(np.ascontiguousarray(getattr(trees, name)).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_forest_trees_digest(case, forest_data):
    algorithm, hyper = CASES[case]
    model = fit(LearnerSpec(algorithm, {"n_estimators": 10, **hyper}, seed=5), *forest_data)
    assert trees_digest(model.trees) == TREES_SHA256[case]


@pytest.mark.parametrize("case", sorted(DFS_CASES))
def test_dfs_trees_digest(case, forest_data):
    algorithm, hyper = DFS_CASES[case]
    model = fit(LearnerSpec(algorithm, hyper, seed=5), *forest_data)
    trees = model.stumps if algorithm == "adaboost" else model.trees
    assert trees_digest(trees) == DFS_TREES_SHA256[case]


@pytest.mark.parametrize("algorithm", ["random_forest", "extra_trees"])
def test_one_pass_equals_one_tree_per_pass(algorithm, forest_data, monkeypatch):
    spec = LearnerSpec(algorithm, {"n_estimators": 7}, seed=8)
    pooled = fit(spec, *forest_data).trees  # 300 rows: all 7 trees in the first step
    monkeypatch.setattr(tree_module, "_PAIRS_PER_STEP", 1)
    single = fit(spec, *forest_data).trees
    for name in FIELDS:
        assert np.array_equal(getattr(pooled, name), getattr(single, name))


CAP_PARAMS = {
    "gini": {"criterion": "gini"},
    "entropy": {"criterion": "entropy"},
    "shallow": {"max_depth": 5, "min_samples_split": 20},
}


@pytest.mark.parametrize("mode", ["exhaustive", "random_threshold"])
@pytest.mark.parametrize("bootstrap", [False, True])
@pytest.mark.parametrize("case", sorted(CAP_PARAMS))
def test_trees_do_not_depend_on_the_pair_cap(mode, bootstrap, case, forest_data, monkeypatch):
    # One tree at a time (cap 1); about two trees a step, so trees are
    # admitted while others are deeper (cap 700 at 300 rows); the default.
    params = tree_module.GrowParams(feature_subsample=3, candidate_mode=mode,
                                    **CAP_PARAMS[case])
    grown = []
    for cap in (1, 700, tree_module._PAIRS_PER_STEP):
        monkeypatch.setattr(tree_module, "_PAIRS_PER_STEP", cap)
        rngs = [stream(8, "tree", t) for t in range(12)]
        grown.append(tree_module.grow_forest(*forest_data, params, rngs, bootstrap))
    for trees in grown[1:]:
        for name in FIELDS:
            assert np.array_equal(getattr(trees, name), getattr(grown[0], name))


@pytest.fixture(scope="module")
def study_folds():
    cleaned, _ = clean(generate_dataset(), "iqr", 1.5)
    train = stratified_split(cleaned, 0.8, DEFAULT_SEED).train
    plan = k_fold_plan(len(train.y), 10, DEFAULT_SEED, stratify_by=train.y)
    return {fold: (train.X[plan.train_rows(fold)], train.y[plan.train_rows(fold)])
            for fold in FOLDS}


@pytest.mark.parametrize("fold", FOLDS)
@pytest.mark.parametrize("case", sorted(FOLD_CASES))
def test_dfs_fold_document_digest(case, fold, study_folds, monkeypatch):
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)  # the document's "created" stamp
    algorithm, hyper = FOLD_CASES[case]
    model = fit(LearnerSpec(algorithm, hyper, seed=DEFAULT_SEED), *study_folds[fold])
    assert hashlib.sha256(save_model(model)).hexdigest() == FOLD_DOC_SHA256[f"{case}-{fold}"]


@pytest.mark.parametrize("fold", FOLDS)
@pytest.mark.parametrize("case", sorted(FOREST_FOLD_CASES))
def test_forest_fold_document_digest(case, fold, study_folds, monkeypatch):
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)  # the document's "created" stamp
    algorithm, hyper = FOREST_FOLD_CASES[case]
    model = fit(LearnerSpec(algorithm, hyper, seed=DEFAULT_SEED), *study_folds[fold])
    assert hashlib.sha256(save_model(model)).hexdigest() == FOREST_FOLD_DOC_SHA256[f"{case}-{fold}"]
