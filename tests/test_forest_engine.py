"""The forest engine against recorded trees and against itself.

The digests are sha256 hashes of the tree arrays of fitted random_forest
and extra_trees models, recorded with the per-tree level-wise growers the
engine replaced. Class sums are integer-valued, so growing all trees of a
forest together must reproduce every node of every tree bit for bit.
"""

import hashlib

import numpy as np
import pytest

from conftest import random_classification
from heartstack.learners import LearnerSpec, fit
from heartstack.learners import tree as tree_module

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


@pytest.mark.parametrize("algorithm", ["random_forest", "extra_trees"])
def test_one_pass_equals_one_tree_per_pass(algorithm, forest_data, monkeypatch):
    spec = LearnerSpec(algorithm, {"n_estimators": 7}, seed=8)
    pooled = fit(spec, *forest_data).trees  # 300 rows: all 7 trees in one pass
    monkeypatch.setattr(tree_module, "_PAIRS_PER_PASS", 1)
    single = fit(spec, *forest_data).trees
    for name in FIELDS:
        assert np.array_equal(getattr(pooled, name), getattr(single, name))
