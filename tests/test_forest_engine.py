"""The tree growers against recorded trees, and the forest engine against
itself.

The digests are sha256 hashes of the tree arrays of fitted models, taken
with each inner node's right child as ``left + 1``, as blocks stored it
before format 3. The forest digests were recorded with the per-tree
level-wise growers the engine replaced. Class sums are integer-valued, so
growing all trees of a forest together must reproduce every node of every
tree bit for bit. The depth-first digests (CART, gbm and xgb_style) were
recorded while second-order trees still had a grower of their own;
grow_tree must reproduce them bit for bit. AdaBoost's was recorded again
when its stumps' leaves became +-alpha.

The CART digests, and the bootstrap class trees of
``BOOTSTRAP_TREES_SHA256``, were recorded with the depth-first grower that
grew class trees before grow_forest took them over. Every tree of these
sets is digested with its nodes numbered depth first (``depth_first``), so
a tree that grows in another order must match the depth-first tree node
for node: a class tree grown level by level (class sums are whole-number
counts, so the order of tied rows cannot change a split), and a boosting
tree whatever order grow_tree splits its nodes in. Only CART with
``max_features`` set was recorded again, as grow_forest draws its
candidate features level by level.

The fold digests are sha256 hashes of whole ``save_model`` documents of the
depth-first learners, fitted at their default sizes on two folds of the
study's synthetic train split, and of 25-tree forests (default
hyperparameters otherwise) on the same folds. Both sets were recorded
again for format 3, CART's documents again when grow_forest began to
grow them, since it numbers nodes level by level, and both sets again for
format 5 (a leaf-value codebook and an inner-node bitmap) and format 6 (no
created stamp, schema columns or n_features_in). The same fold fits'
probabilities on the fold's held-out rows (``FOLD_PROBA_SHA256``) were
recorded with format 2 and did not move, apart from those of CART with
``max_features`` set, recorded again with grow_forest.

``scripts/record_digests.py`` prints every digest set for a checkout.
"""

import hashlib
from types import SimpleNamespace

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
FIELDS = ("feature", "threshold", "left", "value", "roots")
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
    "cart-entropy": ("cart", {"criterion": "entropy"}),
    "cart-shallow": ("cart", {"max_depth": 5, "min_samples_split": 20}),
    "cart-entropy_shallow": ("cart", {"criterion": "entropy", "max_depth": 5,
                                      "min_samples_split": 20}),
    "cart-entropy_subsample": ("cart", {"criterion": "entropy", "max_features": 3}),
}
DFS_TREES_SHA256 = {
    "adaboost-stumps": "3c043b5b79ead8a959a39359edde6d6ba1216fa78936da0f2cec6744683720fb",
    "cart-default": "877aa1b72f73b041e2ea9535e7b436cfd726dea4e846909ae38c9a93b66babcf",
    "cart-entropy": "a0edf51853ff2fb1dea4f6a4b5ea9adceaca15305dd5b0854838e816d1a90fbf",
    "cart-entropy_shallow": "9ce2e02779b808db0b2713d605c5072a1bb66c330de4fbdb6346b77b2ba18541",
    "cart-entropy_subsample": "ff68e5f05bd739ecab962941bf7cd264d2a561a49f4b1de514718b47befcf119",
    "cart-shallow": "e921643dcaf03d0db10666c19a47854e01ab411dd4c50d0c0fc9226d1f809658",
    "gbm-default": "06688c59d2559cfff98b2d23b86dd88c2454fbacb1a378724e999c261728bfa2",
    "xgb_style-default": "3af2f22669cdf0043804e321ea1b5a73ba18e7b99e1d6f45f0181c15fa24eb35",
    "xgb_style-gamma": "0ed2348c976fc630665f3c86290e7e105b822beedcf39ea6b1c1001b941b7d45",
    "xgb_style-no_lambda": "a2923f92439698781bfd62a044fb16e6662cf1ef07e0b29d2162221bc92fd30c",
    "xgb_style-unbounded": "a7aa39eeefd3089f36a5e31b4ea7997ebecc50cb6a68e6375a6737f9abe29e1a",
}

# Three bootstrap class trees per small tie-heavy instance, each recorded
# with the depth-first grower on the tree's resampled rows, its duplicates
# as row weights.
BOOTSTRAP_TREES_SHA256 = {
    "gini-0": "b86a30124fab30f1e2186623f736b66a4ebb78855aa5a43634fb13d993edb037",
    "entropy-1": "eaa9c5cf6500f59211446971e35884c4b908cfeff5e9db56863ef0d3f18ab15e",
    "gini-2": "82e65c53ce6ff78d09a687f5e292184e5f3bd9db9af4d2a34a4d047804a77749",
    "entropy-3": "004f9a5d6c3ad477e742449748c35e0831c9e1b60c868fb9d2624cdcf2df85b4",
    "gini-4": "21d12b2a6ff48f0465bffa72c1efaa801f419f3cab5b81848a796d1850be67f2",
    "entropy-5": "82a62bcc6355f55de8ebdaab7d59fb88ac86e12bcefa6515667bf041e2bc56a9",
    "gini-6": "bd977c9ca9764886433268f006dc624ef61440ec6538ac46f77caae9a8025c2a",
    "entropy-7": "2b7a48ead93026d82d06e3703b77fd067cf700f3c6023d2e232792143deb222e",
    "gini-8": "b9fdccffcd3fda86ae2be84c2cc18a0a59e19ede3ced83e054092d3bd3e9fe4f",
    "entropy-9": "03aab94114d3a04859cc285a3cccc79aa2bec56a4b926e367fe7487ddc313bf5",
    "gini-10": "24301f10d8aaef82047feff91cbac6574a87c9aa2748f9a52814610ddbc65e3c",
    "entropy-11": "59fcb376537374937b8b3aa87656cdb1329477cdda8eaf3bc5cff318c5958c28",
    "gini-12": "a2dee80ff388517d9d565fdc916689a6b2b9c1babd489534eee500c5712f1652",
    "entropy-13": "9b76b440b51a9c6b8a96b0612e9348c5c0c87e523b37970e143983a145ed926a",
    "gini-14": "9dafddd1a1a935a74e60b62dd1a598fd82d8d2e7325ca7d2b80fb1a3103c085d",
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
    "adaboost-0": "0cd92479e37c605c0db331ae5183d3481e04666dabee0f20608b618a068cdee8",
    "adaboost-7": "fc08325c3fd81743972c72d38f9255a95d5885e7d8c5dab6ced72678d2c55641",
    "cart-0": "995b0d11ae9809ab3cdfd4569ff51818b4bc1842e05e4ed44b3bfea6e049f2d3",
    "cart-7": "42b9fb8f18a7200a225ab6702b7d226f2f4d3a387172fd8ab4fdfc9aa0b577c6",
    "cart-sqrt_features-0": "67cc25fe0c5dcc0ccf8753f48a0b0772051397b0384d43c498cea1545c269713",
    "cart-sqrt_features-7": "ddec7e5171c97424d964e5f95f4eba991b642df097f9ffd1a33a157a1d94711c",
    "gbm-0": "7eb0514609198fc89403246821a169bb8dc6149cf01489f0860f3535fbf95dd6",
    "gbm-7": "778ca6a9a2ca95a34231ba6af3a84ffe54c501f7a4eda8beae6741b4ff765345",
    "xgb_style-0": "dc39dbf7e75942a2e6c3d42c842185942408b13b8f7805896768d27e978fea1d",
    "xgb_style-7": "e8e41b965d8c21a678e0a55f673b25f07d0d59c49542879bd32e78c0fc0c1c6a",
}

# 25-tree forests on the same OOF folds.
FOREST_FOLD_CASES = {
    "random_forest": ("random_forest", {"n_estimators": 25}),
    "extra_trees": ("extra_trees", {"n_estimators": 25}),
}
FOREST_FOLD_DOC_SHA256 = {
    "extra_trees-0": "abcb9dec1f0599116798d98e9320a48ce65dd981caa3e3441f57e990435eaee5",
    "extra_trees-7": "fba905a7ef3c69ce4148952905a9bfc07692d85b6a620ca823d777e6b0f983cc",
    "random_forest-0": "234600012c6fab222831ce9e444109b9730d80f3d8dc3157b4b6131deaf8a7fc",
    "random_forest-7": "81b717c5fd20f8958af29600bcd429d821dd7e3cedf16cc8110a88e78ee91d37",
}
FOLD_PROBA_SHA256 = {
    "adaboost-0": "50b8bb2de5d6a59716f90c8033ee76515aef5abd3a8be744221310bc6094f7d1",
    "adaboost-7": "238be725b3f0250cba5762f9a31b7257fff70303b597f41c7b650e0306134da2",
    "cart-0": "a7f1c84cd3adf7ae5b8eb8499aabc98a475047d7a7e49eb019b2e81db3fa1b27",
    "cart-7": "f15813171eacff6a7723b0ea34a7365bdc7b16f2213a42a9568a1e68ff8021f9",
    "cart-sqrt_features-0": "36cc505db1263f1e66deb073dfeebc0d49360eddb3c98a31adb84aac906d6f2e",
    "cart-sqrt_features-7": "67ad2d7bb88007ecc3173b0321d14b087074a91a14fa938dd5d4189df3ea1adf",
    "extra_trees-0": "de65defecba93f8b67e9c41cb3e217b42b0354e3e939528f55c20685396e20d9",
    "extra_trees-7": "1e67046378abbdea55376fc1af313e5c488aaf31022fc7350e5e153d6913ac32",
    "gbm-0": "b8fae523dbe43b6f1f1c726883a01bc182f6474299e6186309bce722ad32122d",
    "gbm-7": "f05c13f86c0100d4c3689ab21a4f904c5b426a69655f5fda76c251d9be7ed80f",
    "random_forest-0": "369f15d8d7966144b1c356ecdeb883f8b85a57bd1e52153e4fd4ebf503dcba05",
    "random_forest-7": "4fb8e89dddeda519435c4dc774d3b3b9838669966cd6cb8f764d0dd517ca0abd",
    "xgb_style-0": "9f363404989879d91aa5934e61d854b7069b9eaa877decdaceb15280c3c0cfe7",
    "xgb_style-7": "75e42928a076cce04a600be222ed21c7e3932b1158867accfd1634c920d1c704",
}


def make_forest_data():
    rng = np.random.default_rng(846)
    X, y = random_classification(rng, 300, 11)
    X[:, :4] = np.round(X[:, :4], 1)  # tied values exercise the midpoint rule
    X[:, 4] = rng.integers(0, 4, 300)  # a coded feature with four levels
    return X, y


@pytest.fixture(scope="module")
def forest_data():
    return make_forest_data()


def trees_digest(trees) -> str:
    """The digest of a block's arrays as recorded when blocks still stored
    each inner node's right child, which is its left child plus one."""
    arrays = {name: getattr(trees, name) for name in FIELDS}
    arrays["right"] = np.where(trees.left == -1, -1, trees.left + 1)
    h = hashlib.sha256()
    for name in ("feature", "threshold", "left", "right", "value", "roots"):
        h.update(np.ascontiguousarray(arrays[name]).tobytes())
    return h.hexdigest()


def forest_trees_digest(case, data) -> str:
    algorithm, hyper = CASES[case]
    return trees_digest(fit(LearnerSpec(algorithm, {"n_estimators": 10, **hyper}, seed=5),
                            *data).trees)


def depth_first(trees):
    """The block's arrays with each tree's nodes numbered as a depth-first
    grower numbers them: nodes split in depth-first order, left subtree
    first, and a node's children take the next two ids when it splits. Node
    values and links are unchanged, so a tree grown level by level digests
    as the same tree grown depth first. A TreeBlock cannot hold that
    numbering, so the arrays come back as attributes of a namespace."""
    parts, roots = [], []
    for root in trees.roots:
        order, stack = [root], [root]  # old ids in their new order
        while stack:
            left = trees.left[stack.pop()]
            if left != -1:
                order += [left, left + 1]
                stack += [left + 1, left]
        order = np.array(order)
        roots.append(sum(len(part[0]) for part in parts))
        new_id = np.zeros(trees.n_nodes, dtype=np.intp)
        new_id[order] = np.arange(len(order)) + roots[-1]
        left = trees.left[order]
        parts.append((trees.feature[order], trees.threshold[order],
                      np.where(left == -1, -1, new_id[left]), trees.value[order]))
    fields = (np.concatenate(field) for field in zip(*parts))
    return SimpleNamespace(**dict(zip(("feature", "threshold", "left", "value"), fields)),
                           roots=np.array(roots, dtype=np.intp))


def dfs_trees_digest(case, data) -> str:
    algorithm, hyper = DFS_CASES[case]
    model = fit(LearnerSpec(algorithm, hyper, seed=5), *data)
    return trees_digest(depth_first(model.trees))


def bootstrap_trees_digests() -> dict[str, str]:
    """The BOOTSTRAP_TREES_SHA256 cases as grow_forest grows them, each
    tree numbered depth first."""
    rng = np.random.default_rng(7)
    out = {}
    for case in range(15):
        n = int(rng.integers(4, 50))
        d = int(rng.integers(1, 5))
        X = np.round(rng.normal(size=(n, d)), 1)
        y = rng.integers(0, 2, n)
        criterion = ("gini", "entropy")[case % 2]
        rngs = [stream(case, "tree", t) for t in range(3)]
        forest = tree_module.grow_forest(X, y, tree_module.GrowParams(criterion=criterion),
                                         rngs, bootstrap=True)
        rng.normal(size=(40, d))  # query rows, drawn as when the cases were recorded
        out[f"{criterion}-{case}"] = trees_digest(depth_first(forest))
    return out


@pytest.mark.parametrize("case", sorted(CASES))
def test_forest_trees_digest(case, forest_data):
    assert forest_trees_digest(case, forest_data) == TREES_SHA256[case]


@pytest.mark.parametrize("case", sorted(DFS_CASES))
def test_dfs_trees_digest(case, forest_data):
    assert dfs_trees_digest(case, forest_data) == DFS_TREES_SHA256[case]


def test_bootstrap_trees_digest():
    assert bootstrap_trees_digests() == BOOTSTRAP_TREES_SHA256


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


def make_study_folds():
    """Per fold of FOLDS: its training rows, labels and held-out rows."""
    cleaned, _ = clean(generate_dataset(), "iqr", 1.5)
    train = stratified_split(cleaned, 0.8, DEFAULT_SEED).train
    plan = k_fold_plan(len(train.y), 10, DEFAULT_SEED, stratify_by=train.y)
    return {fold: (train.X[plan.train_rows(fold)], train.y[plan.train_rows(fold)],
                   train.X[plan.test_rows(fold)])
            for fold in FOLDS}


@pytest.fixture(scope="module")
def study_folds():
    return make_study_folds()


def fold_digests(algorithm, hyper, fold_data) -> tuple[str, str]:
    """The sha256 of one fold fit's save_model document and of its
    predict_proba bytes on the fold's held-out rows."""
    X, y, held_out = fold_data
    model = fit(LearnerSpec(algorithm, hyper, seed=DEFAULT_SEED), X, y)
    proba = np.ascontiguousarray(model.predict_proba(held_out))
    return hashlib.sha256(save_model(model)).hexdigest(), hashlib.sha256(proba).hexdigest()


@pytest.mark.parametrize("fold", FOLDS)
@pytest.mark.parametrize("case", sorted(FOLD_CASES))
def test_dfs_fold_document_digest(case, fold, study_folds):
    doc, proba = fold_digests(*FOLD_CASES[case], study_folds[fold])
    assert doc == FOLD_DOC_SHA256[f"{case}-{fold}"]
    assert proba == FOLD_PROBA_SHA256[f"{case}-{fold}"]


@pytest.mark.parametrize("fold", FOLDS)
@pytest.mark.parametrize("case", sorted(FOREST_FOLD_CASES))
def test_forest_fold_document_digest(case, fold, study_folds):
    doc, proba = fold_digests(*FOREST_FOLD_CASES[case], study_folds[fold])
    assert doc == FOREST_FOLD_DOC_SHA256[f"{case}-{fold}"]
    assert proba == FOLD_PROBA_SHA256[f"{case}-{fold}"]
