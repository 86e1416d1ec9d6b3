import math

import numpy as np
import pytest

from heartstack.learners.tree import (
    GrowParams,
    TreeBlock,
    best_split,
    grow_forest,
    grow_tree,
    tree_apply,
)
from heartstack.rng import stream


def scalar_impurity(labels, weights, criterion):
    total = sum(weights)
    p1 = sum(w for label, w in zip(labels, weights) if label == 1) / total
    if criterion == "gini":
        return 2.0 * p1 * (1.0 - p1)
    h = 0.0
    for p in (p1, 1.0 - p1):
        if p > 0.0:
            h -= p * math.log2(p)
    return h


def brute_force_split(X, y, w, features, criterion):
    """Enumerate every (feature, midpoint) candidate with scalar math."""
    n = len(y)
    w = [1.0] * n if w is None else list(w)
    parent = scalar_impurity(y, w, criterion)
    total = sum(w)
    best = None
    for f in sorted(features):
        values = sorted(set(X[:, f]))
        for a, b in zip(values, values[1:]):
            threshold = (a + b) / 2.0
            left = [i for i in range(n) if X[i, f] <= threshold]
            right = [i for i in range(n) if X[i, f] > threshold]
            lw = sum(w[i] for i in left)
            rw = sum(w[i] for i in right)
            child = (
                lw * scalar_impurity([y[i] for i in left], [w[i] for i in left], criterion)
                + rw * scalar_impurity([y[i] for i in right], [w[i] for i in right], criterion)
            ) / total
            decrease = parent - child
            if best is None or decrease > best[2]:
                best = (f, threshold, decrease)
    if best is None or not best[2] > 0.0:
        return None
    return best


def test_perfectly_separable_entropy_split():
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([0, 0, 1, 1])
    feature, threshold, decrease = best_split(X, y, None, [0], "entropy")
    assert feature == 0
    assert threshold == 2.5
    assert decrease == pytest.approx(1.0)  # one full bit


def test_pure_node_has_no_split():
    X = np.array([[1.0], [2.0], [3.0]])
    assert best_split(X, np.array([1, 1, 1]), None, [0], "gini") is None


def test_matches_brute_force_on_micro_instances():
    rng = np.random.default_rng(303)
    checked = 0
    for _ in range(60):
        n = int(rng.integers(2, 13))
        d = int(rng.integers(1, 4))
        X = np.round(rng.normal(size=(n, d)), 2)
        y = rng.integers(0, 2, n)
        criterion = ("gini", "entropy")[int(rng.integers(0, 2))]
        got = best_split(X, y, None, range(d), criterion)
        want = brute_force_split(X, y, None, range(d), criterion)
        if want is None:
            assert got is None
            continue
        assert got is not None
        assert got[0] == want[0]
        assert got[1] == want[1]
        assert got[2] == pytest.approx(want[2], abs=1e-12)
        checked += 1
    assert checked > 20


def test_weighted_split_matches_brute_force():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(3, 12))
        X = np.round(rng.normal(size=(n, 2)), 2)
        y = rng.integers(0, 2, n)
        w = rng.integers(1, 5, n).astype(float)
        got = best_split(X, y, w, [0, 1], "gini")
        want = brute_force_split(X, y, w, [0, 1], "gini")
        if want is None:
            assert got is None
        else:
            assert (got[0], got[1]) == (want[0], want[1])
            assert got[2] == pytest.approx(want[2], abs=1e-12)


def test_random_threshold_lies_between_min_and_max():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 3))
    y = rng.integers(0, 2, 30)
    y[0], y[1] = 0, 1
    params = GrowParams(max_depth=1, candidate_mode="random_threshold")
    stump = grow_forest(X, y, params, [stream(1, "t")])
    assert stump.left[0] != -1
    feature, threshold = stump.feature[0], stump.threshold[0]
    assert X[:, feature].min() <= threshold <= X[:, feature].max()


def test_variance_criterion_prefers_mean_separating_cut():
    X = np.array([[1.0], [2.0], [10.0], [11.0]])
    y = np.array([0.1, 0.2, 5.0, 5.1])
    feature, threshold, _ = best_split(X, y, None, [0], "variance")
    assert feature == 0
    assert threshold == 6.0


def test_pure_input_grows_single_leaf():
    X = np.array([[1.0], [2.0]])
    tree = grow_tree(X, np.array([1, 1]), GrowParams())
    assert tree.n_nodes == 1 and tree.left[0] == -1
    assert tree.value[0] == 1.0


def test_xor_pattern_needs_depth_two():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 1, 0])
    tree = grow_tree(X, y, GrowParams(criterion="entropy"))
    assert (tree_apply(tree, X)[0] >= 0.5).astype(int).tolist() == y.tolist()


def test_unlimited_depth_memorizes_consistent_data():
    rng = np.random.default_rng(99)
    for _ in range(10):
        n = int(rng.integers(5, 60))
        X = rng.normal(size=(n, 3))
        y = rng.integers(0, 2, n)
        tree = grow_tree(X, y, GrowParams())
        assert ((tree_apply(tree, X)[0] >= 0.5).astype(int) == y).all()


def test_max_depth_zero_like_stump():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(20, 2))
    y = rng.integers(0, 2, 20)
    y[:2] = (0, 1)
    stump = grow_tree(X, y, GrowParams(max_depth=1))
    assert (stump.left[1:] == -1).all()  # every node below the root is a leaf


def test_regression_leaves_hold_means():
    X = np.array([[0.0], [1.0], [10.0], [11.0]])
    y = np.array([1.0, 2.0, 8.0, 9.0])
    tree = grow_tree(X, y, GrowParams(criterion="variance", max_depth=1))
    assert tree_apply(tree, np.array([[0.5]]))[0, 0] == pytest.approx(1.5)
    assert tree_apply(tree, np.array([[10.5]]))[0, 0] == pytest.approx(8.5)


def test_fitted_values_are_the_training_rows_leaves():
    rng = np.random.default_rng(21)
    X = np.round(rng.normal(size=(70, 3)), 1)
    y = rng.integers(0, 2, 70)
    cases = [(y, GrowParams(criterion="entropy"), None),
             (y, GrowParams(max_depth=1), rng.random(70)),
             (y - rng.random(70), GrowParams(criterion="variance", max_depth=3), None)]
    for target, params, w in cases:
        fitted = np.full(70, np.nan)
        tree = grow_tree(X, target, params, w=w, fitted=fitted)
        assert np.array_equal(fitted, tree_apply(tree, X)[0])


def test_forest_engine_matches_dfs_grower():
    # Each bootstrap tree of the engine against grow_tree on the same
    # resampled rows, with the duplicates as row weights.
    rng = np.random.default_rng(7)
    for case in range(15):
        n = int(rng.integers(4, 50))
        d = int(rng.integers(1, 5))
        X = np.round(rng.normal(size=(n, d)), 1)
        y = rng.integers(0, 2, n)
        params = GrowParams(criterion=("gini", "entropy")[case % 2])
        forest = grow_forest(X, y, params, [stream(case, "tree", t) for t in range(3)],
                             bootstrap=True)
        q = rng.normal(size=(40, d))
        for t, leaves in enumerate(tree_apply(forest, q)):
            counts = np.bincount(stream(case, "tree", t).integers(0, n, size=n), minlength=n)
            rows = np.flatnonzero(counts)
            dfs = grow_tree(X[rows], y[rows], params, w=counts[rows].astype(float))
            assert np.array_equal(tree_apply(dfs, q)[0], leaves)


def test_forest_engine_random_trees_memorize():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(80, 4))
    y = rng.integers(0, 2, 80)
    y[:2] = (0, 1)
    params = GrowParams(criterion="entropy", candidate_mode="random_threshold")
    forest = grow_forest(X, y, params, [stream(9, "tree", t) for t in range(3)])
    assert forest.n_trees == 3
    assert ((tree_apply(forest, X) >= 0.5).astype(int) == y).all()
    assert (np.diff(np.append(forest.roots, forest.n_nodes)) >= 3).all()


def test_blocks_number_children_after_parents_and_concatenate():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(60, 3))
    y = rng.integers(0, 2, 60)
    params = GrowParams(criterion="entropy")
    random_params = GrowParams(criterion="entropy", feature_subsample=2,
                               candidate_mode="random_threshold")
    trees = [grow_tree(X, y, params),
             grow_tree(X, y - 0.5, GrowParams(criterion="variance", max_depth=3)),
             grow_forest(X, y, params, [stream(4, "tree", t) for t in range(2)], bootstrap=True),
             grow_forest(X, y, random_params, [stream(5, "tree", t) for t in range(2)])]
    for tree in trees:
        inner = np.flatnonzero(tree.left != -1)
        assert (tree.left[inner] > inner).all() and (tree.right[inner] > inner).all()
    block = TreeBlock.concat(trees)
    assert block.n_trees == 6 and block.n_nodes == sum(t.n_nodes for t in trees)
    loaded = TreeBlock.from_dict(block.to_dict(), 3)
    for name in ("feature", "threshold", "left", "right", "value", "roots"):
        assert np.array_equal(getattr(loaded, name), getattr(block, name))
    q = rng.normal(size=(30, 3))
    assert np.array_equal(tree_apply(block, q), np.vstack([tree_apply(t, q) for t in trees]))
