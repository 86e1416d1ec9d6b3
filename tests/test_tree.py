import json
import math
import tracemalloc

import numpy as np
import pytest

from heartstack.cleaning import clean
from heartstack.config import DEFAULT_SEED
from heartstack.learners import LearnerSpec, boosting, fit, forest
from heartstack.learners import tree as tree_module
from heartstack.learners.tree import (
    GrowParams,
    SortedColumns,
    TreeBlock,
    _best_cuts,
    _class_impurity,
    _exhaustive_cuts,
    _impurity,
    _random_cuts,
    _sort_block,
    _split_exhaustive,
    _target_sums,
    best_split,
    grow_forest,
    grow_tree,
    tree_apply,
)
from heartstack.model_selection import k_fold_plan
from heartstack.rng import stream
from heartstack.splitting import stratified_split
from heartstack.synthetic import generate_dataset
from test_forest_engine import depth_first


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


def grow_cart(X, y, params):
    """One class tree on every row, as CART grows it."""
    return grow_forest(X, y, params, [stream(0, "cart")])


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
    tree = grow_cart(X, np.array([1, 1]), GrowParams())
    assert tree.n_nodes == 1 and tree.left[0] == -1
    assert tree.value[0] == 1.0


def test_xor_pattern_needs_depth_two():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 1, 0])
    tree = grow_cart(X, y, GrowParams(criterion="entropy"))
    assert (tree_apply(tree, X)[0] >= 0.5).astype(int).tolist() == y.tolist()


def test_unlimited_depth_memorizes_consistent_data():
    rng = np.random.default_rng(99)
    for _ in range(10):
        n = int(rng.integers(5, 60))
        X = rng.normal(size=(n, 3))
        y = rng.integers(0, 2, n)
        tree = grow_cart(X, y, GrowParams())
        assert ((tree_apply(tree, X)[0] >= 0.5).astype(int) == y).all()


def test_max_depth_zero_like_stump():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(20, 2))
    y = rng.integers(0, 2, 20)
    y[:2] = (0, 1)
    stump = grow_cart(X, y, GrowParams(max_depth=1))
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
    p = rng.random(70)
    cases = [(p - rng.integers(0, 2, 70), GrowParams(criterion="second_order", max_depth=3),
              p * (1.0 - p)),
             (p - rng.random(70), GrowParams(criterion="variance", max_depth=3), None)]
    for target, params, w in cases:
        fitted = np.full(70, np.nan)
        tree = grow_tree(X, target, params, w=w, fitted=fitted)
        assert np.array_equal(fitted, tree_apply(tree, X)[0])


@pytest.mark.parametrize("criterion", ["gini", "entropy"])
def test_grow_tree_grows_no_class_trees(criterion):
    X = np.array([[0.0], [1.0]])
    with pytest.raises(ValueError, match="grow_forest"):
        grow_tree(X, np.array([0, 1]), GrowParams(criterion=criterion))


def test_adaboost_votes_are_its_stumps_leaves():
    rng = np.random.default_rng(22)
    shapes = set()
    for case in range(30):
        X = np.round(rng.normal(size=(40, 3)), 1)
        if case % 10 == 9:
            X[:] = 0.5  # no cut
        y = rng.integers(0, 2, 40)
        if case % 10 == 8:
            y[:] = 1  # pure
        w = rng.random(40)
        stump, labels = boosting._stump(SortedColumns(X), y, w / w.sum())
        assert np.array_equal(labels, tree_apply(stump, X)[0] >= 0.5)
        shapes.add(stump.n_nodes)
    assert shapes == {1, 3}


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
    trees = [grow_cart(X, y, params),
             grow_tree(X, y - 0.5, GrowParams(criterion="variance", max_depth=3)),
             grow_forest(X, y, params, [stream(4, "tree", t) for t in range(2)], bootstrap=True),
             grow_forest(X, y, random_params, [stream(5, "tree", t) for t in range(2)])]
    for tree in trees:
        inner = np.flatnonzero(tree.left != -1)
        assert (tree.left[inner] > inner).all() and (tree.left[inner] + 1 < tree.n_nodes).all()
    block = TreeBlock.concat(trees)
    assert block.n_trees == 6 and block.n_nodes == sum(t.n_nodes for t in trees)
    loaded = TreeBlock.from_dict(block.to_dict(3), 3)
    for name in ("feature", "threshold", "left", "value", "roots"):
        assert np.array_equal(getattr(loaded, name), getattr(block, name))
    q = rng.normal(size=(30, 3))
    assert np.array_equal(tree_apply(block, q), np.vstack([tree_apply(t, q) for t in trees]))


def row_major_split(V, feats, a, b, w, criterion, require_positive=True,
                    reg_lambda=1.0, gamma=0.0):
    """The split kernel as it was before the feature-major blocks: V holds
    one column per candidate feature, every cut is scored, and cuts between
    equal values are masked to -inf."""
    order = np.argsort(V, axis=0)
    Vs = np.take_along_axis(V, order, axis=0)
    cum_w = np.cumsum(w[order], axis=0)
    cum_a = np.cumsum(a[order], axis=0)
    W = cum_w[-1, 0]
    A = cum_a[-1, 0]
    lw, la = cum_w[:-1], cum_a[:-1]
    rw, ra = W - lw, A - la
    if criterion == "second_order":
        parent_score = A * A / (W + reg_lambda)
        decrease = 0.5 * (la * la / (lw + reg_lambda) + ra * ra / (rw + reg_lambda)
                          - parent_score) - gamma
    else:
        if criterion == "variance":
            cum_b = np.cumsum(b[order], axis=0)
            B = cum_b[-1, 0]
            lb, rb = cum_b[:-1], B - cum_b[:-1]
        else:
            lb = rb = B = None
        parent = float(_impurity(np.array(A), np.array(B) if B is not None else None,
                                 np.array(W), criterion))
        child = (lw * _impurity(la, lb, lw, criterion) + rw * _impurity(ra, rb, rw, criterion)) / W
        decrease = parent - child
    decrease[Vs[1:] == Vs[:-1]] = -np.inf

    flat = np.argmax(decrease.T)
    f_local, cut = divmod(flat, decrease.shape[0])
    best = decrease[cut, f_local]
    if best == -np.inf:
        return None
    if require_positive and not best > 0.0:
        return None
    threshold = (Vs[cut, f_local] + Vs[cut + 1, f_local]) / 2.0
    return (int(feats[f_local]), float(threshold), float(best),
            float(la[cut, f_local]), float(lw[cut, f_local]))


def split_bits(found):
    return None if found is None else (found[0], np.array(found[1:]).tobytes())


def random_node(rng, criterion):
    """A tie-heavy node block: V (m, k) over a feature subset of d, with
    targets and weights of the kind the criterion's callers pass."""
    m = int(rng.integers(2, 400))
    d = int(rng.integers(1, 12))
    k = int(rng.integers(1, d + 1))
    feats = np.sort(rng.choice(d, size=k, replace=False))
    levels = rng.integers(1, 30, size=k)
    V = rng.integers(0, levels, size=(m, k)) / 4.0
    V[:, rng.random(k) < 0.3] += np.round(rng.normal(size=m), 1)[:, None]
    if rng.random() < 0.1:
        V[:] = 1.5  # every candidate constant: no cut at all
    if criterion == "second_order":
        p = rng.choice([0.1, 0.3, 0.5, 0.75], size=m)
        y = p - rng.integers(0, 2, m)  # gradients, hessians as weights
        w = p * (1.0 - p)
    elif criterion == "variance":
        y = np.round(rng.uniform(-1.0, 1.0, m), 2)
        w = rng.choice([0.5, 1.0, 2.0, 3.0], size=m)
    else:
        y = rng.integers(0, 2, m).astype(float)
        w = rng.random(m) / m  # AdaBoost-like float weights
    return V, feats, y, w


@pytest.mark.parametrize("criterion, seed",
                         [("gini", 1), ("entropy", 2), ("variance", 3), ("second_order", 4)])
def test_feature_major_kernel_matches_row_major_reference(criterion, seed):
    rng = np.random.default_rng(seed)
    found = 0
    for _ in range(150):
        V, feats, y, w = random_node(rng, criterion)
        options = (bool(rng.integers(0, 2)), float(rng.choice([0.0, 0.5, 1.0])),
                   float(rng.choice([0.0, 0.05])))  # require_positive, reg_lambda, gamma
        for weights in (w, np.ones(len(y))):
            a, b = _target_sums(y, weights, criterion)
            want = row_major_split(V, feats, a, b, weights, criterion, *options)
            got = _split_exhaustive(_sort_block(V.T), feats, a, b, weights, criterion, *options)
            assert split_bits(got) == split_bits(want)
            found += want is not None
    assert found > 100


def test_grow_tree_on_sorted_columns_equals_grow_tree_on_x():
    rng = np.random.default_rng(31)
    X = np.round(rng.normal(size=(120, 5)), 1)
    columns = SortedColumns(X)
    y = rng.integers(0, 2, 120)
    for _ in range(3):
        target = y - rng.random(120)
        params = GrowParams(criterion="variance", max_depth=3)
        a = depth_first(grow_tree(columns, target, params))
        b = depth_first(grow_tree(X, target, params))
        for name in ("feature", "threshold", "left", "value", "roots"):
            assert np.array_equal(getattr(a, name), getattr(b, name))


class UncachedColumns(SortedColumns):
    """SortedColumns that forgets every sorted block before each lookup, so
    each node of each tree is sorted anew, as before the node cache."""

    lookups = 0

    def node(self, path, rows):
        UncachedColumns.lookups += 1
        self._nodes.clear()
        vars(self).pop("root", None)
        return super().node(path, rows)


def tie_heavy_data(seed, n=300, d=6):
    """Coded and one-decimal features with many tied values."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 5, size=(n, d)) / 2.0
    X[:, 0] = np.round(rng.normal(size=n), 1)
    y = (X[:, 0] + X[:, 1] - X[:, 2] + rng.normal(scale=0.8, size=n) > 0.5).astype(np.int64)
    return X, y


NODE_CACHE_CASES = [
    ("xgb_style", {"n_estimators": 60}),
    ("gbm", {"n_estimators": 60}),
    ("adaboost", {"n_estimators": 20}),
]


@pytest.mark.parametrize("algorithm, hyper", NODE_CACHE_CASES)
def test_node_cache_leaves_model_documents_unchanged(algorithm, hyper, monkeypatch):
    X, y = tie_heavy_data(33)
    spec = LearnerSpec(algorithm, hyper, seed=5)
    # The models read 6 features, not the schema's 11, so save_model would
    # refuse them; their payloads are what a document holds of a fit.
    cached = json.dumps(fit(spec, X, y).params_payload())
    monkeypatch.setattr(boosting, "SortedColumns", UncachedColumns)
    monkeypatch.setattr(UncachedColumns, "lookups", 0)
    assert json.dumps(fit(spec, X, y).params_payload()) == cached
    assert UncachedColumns.lookups > 0


@pytest.mark.parametrize("algorithm", ["xgb_style", "gbm"])
def test_each_node_path_is_sorted_once_per_fit(algorithm, monkeypatch):
    X, y = tie_heavy_data(34)
    sorts, paths = [], []
    sort_block, node = tree_module._sort_block, SortedColumns.node

    def counted_sort(V):
        sorts.append(V.shape)
        return sort_block(V)

    def recorded_node(self, path, rows):
        paths.append(path)
        return node(self, path, rows)

    monkeypatch.setattr(tree_module, "_sort_block", counted_sort)
    monkeypatch.setattr(SortedColumns, "node", recorded_node)
    fit(LearnerSpec(algorithm, {"n_estimators": 60}), X, y)
    assert len(sorts) == len(set(paths)) < len(paths) / 2


def test_node_cache_of_a_fold_fit_is_compact(monkeypatch):
    """About 4 bytes per cached value; float sorted blocks would hold 8.9 MB."""
    cleaned, _ = clean(generate_dataset(), "iqr", 1.5)
    train = stratified_split(cleaned, 0.8, DEFAULT_SEED).train
    rows = k_fold_plan(len(train.y), 10, DEFAULT_SEED, stratify_by=train.y).train_rows(0)
    made = []

    def recorded_columns(X):
        made.append(SortedColumns(X))
        return made[-1]

    monkeypatch.setattr(boosting, "SortedColumns", recorded_columns)
    fit(LearnerSpec("xgb_style", {"n_estimators": 100}), train.X[rows], train.y[rows])
    (columns,) = made
    blocks = [columns.root, *columns._nodes.values()]
    assert len(blocks) > 100
    assert sum(b.order.nbytes + b.cuts.nbytes for b in blocks) <= 1.5e6


def all_positions_cuts(V, keys, seg, starts, w, a, a1, wt, parent, criterion):
    """The forest engine's exhaustive kernel as it was before it scored only
    the cuts between distinct values: every pair position is scored, and the
    positions that are not cuts are masked to -inf."""
    m, total = len(starts), len(seg)
    ends = np.append(starts[1:], total) - 1
    positions = np.arange(total)
    same_node = seg[1:] == seg[:-1]
    wt_seg, a1_seg, parent_seg = wt[seg], a1[seg], parent[seg]
    best_gain = np.full(m, -np.inf)
    best_col = np.zeros(m, dtype=np.intp)
    best_thr, best_la, best_lw = np.zeros(m), np.zeros(m), np.zeros(m)
    for j in range(V.shape[1]):
        order = np.argsort(keys[:, j])
        Vs = V[order, j]
        cw = np.cumsum(w[order])
        ca = np.cumsum(a[order])
        lw = cw - np.concatenate(([0.0], cw[ends[:-1]]))[seg]
        la = ca - np.concatenate(([0.0], ca[ends[:-1]]))[seg]
        rw = wt_seg - lw
        ra = a1_seg - la
        valid = np.zeros(total, dtype=bool)
        valid[:-1] = same_node & (Vs[1:] > Vs[:-1])
        child = (lw * _class_impurity(la, np.where(lw > 0, lw, 1.0), criterion)
                 + rw * _class_impurity(ra, np.where(rw > 0, rw, 1.0), criterion)) / wt_seg
        gain = np.where(valid, parent_seg - child, -np.inf)
        seg_max = np.maximum.reduceat(gain, starts)
        first = np.minimum.reduceat(np.where(gain == seg_max[seg], positions, total), starts)
        better = np.flatnonzero(seg_max > best_gain)
        pos = first[better]
        best_gain[better] = seg_max[better]
        best_col[better] = j
        best_thr[better] = (Vs[pos] + Vs[pos + 1]) / 2.0
        best_la[better] = la[pos]
        best_lw[better] = lw[pos]
    return best_gain, best_col, best_thr, best_la, best_lw


def random_level(rng, criterion):
    """A tie-heavy level of the forest engine: X with the rank of each value
    in its column, and m nodes of integer-weighted (tree, row) pairs with
    their candidate features and class sums. About one node in five takes
    its rows from a block of equal rows, where every candidate column is
    constant, and one-pair nodes have no cut either."""
    n, d = int(rng.integers(8, 60)), int(rng.integers(1, 6))
    X = rng.integers(0, rng.integers(1, 6, size=d), size=(n, d)) / 2.0
    X[:, rng.random(d) < 0.3] += np.round(rng.normal(size=n), 1)[:, None]
    X[:4] = X[0]
    ranks = np.stack([np.unique(col, return_inverse=True)[1] for col in X.T], axis=1)
    m = int(rng.integers(1, 12))
    count = rng.integers(1, 40, size=m)
    seg = np.repeat(np.arange(m), count)
    starts = np.cumsum(count) - count
    row = np.where((rng.random(m) < 0.2)[seg], rng.integers(0, 4, len(seg)),
                   rng.integers(0, n, len(seg)))
    k = int(rng.integers(1, d + 1))
    feats = np.sort(np.argsort(rng.random((m, d)), axis=1)[:, :k], axis=1)
    w = rng.integers(1, 4, size=len(seg)).astype(float)  # bootstrap counts
    a = w * rng.integers(0, 2, size=len(seg))
    a1, wt = np.add.reduceat(a, starts), np.add.reduceat(w, starts)
    parent = _class_impurity(a1, wt, criterion)
    return X, ranks, row, feats, seg, starts, w, a, a1, wt, parent, criterion


@pytest.mark.parametrize("criterion, seed", [("gini", 5), ("entropy", 6)])
def test_distinct_value_cuts_match_all_positions_reference(criterion, seed):
    rng = np.random.default_rng(seed)
    nodes = cut_nodes = 0
    for _ in range(200):
        level = random_level(rng, criterion)
        X, ranks, row, feats, seg = level[:5]
        cells = (row[:, None], feats[seg])
        want = all_positions_cuts(X[cells], seg[:, None] * len(X) + ranks[cells], *level[4:])
        got = _best_cuts(*_exhaustive_cuts(*level[:8]), *level[8:])
        for g, r in zip(got, want):
            assert g.dtype == r.dtype and g.tobytes() == r.tobytes()
        nodes += len(want[0])
        cut_nodes += int(np.isfinite(want[0]).sum())
    assert 0.5 * nodes < cut_nodes < nodes


def dense_random_cuts(V, seg, starts, w, a, a1, wt, parent, criterion, draws):
    """The forest engine's random-threshold kernel as it was before its
    selection moved into _best_cuts: the gains of all (node, column) pairs
    as one dense array, -inf where a threshold does not separate the node's
    rows, and np.argmax per node. A node without a cut reports zeros next
    to its -inf gain; grow_forest reads none of them."""
    lo = np.minimum.reduceat(V, starts, axis=0)
    hi = np.maximum.reduceat(V, starts, axis=0)
    u = np.concatenate([rng.random((e - b, V.shape[1])) for rng, b, e in draws])
    thr = lo + (hi - lo) * u
    left = V <= np.take(thr, seg, axis=0)
    lw = np.add.reduceat(left * w[:, None], starts, axis=0)
    la = np.add.reduceat(left * a[:, None], starts, axis=0)
    rw = wt[:, None] - lw
    ra = a1[:, None] - la
    child = (lw * _class_impurity(la, np.where(lw > 0, lw, 1.0), criterion)
             + rw * _class_impurity(ra, np.where(rw > 0, rw, 1.0), criterion)) / wt[:, None]
    gain = np.where((hi > lo) & (lw > 0) & (rw > 0), parent[:, None] - child, -np.inf)
    col = np.argmax(gain, axis=1)
    at = np.arange(len(col))
    found = gain[at, col] > -np.inf
    return (gain[at, col], np.where(found, col, 0),
            *(np.where(found, x[at, col], 0.0) for x in (thr, la, lw)))


def random_threshold_level(rng, criterion):
    """A random_level's candidate values, one pair per row, and its class
    sums, with a function giving the level's trees afresh: each its
    generator, seeded alike on every call, and the range of its nodes."""
    X, _, row, feats, seg, starts, w, a, a1, wt, parent, _ = random_level(rng, criterion)
    m = len(starts)
    bounds = np.unique(np.concatenate(([0, m], rng.integers(0, m + 1, size=3))))
    seeds = rng.integers(0, 2**32, size=len(bounds) - 1)

    def trees():
        return [(np.random.default_rng(s), lo, hi)
                for s, lo, hi in zip(seeds, bounds[:-1], bounds[1:])]

    return X[row[:, None], feats[seg]], seg, starts, w, a, a1, wt, parent, trees


@pytest.mark.parametrize("criterion, seed", [("gini", 7), ("entropy", 8)])
def test_random_cuts_match_dense_argmax_reference(criterion, seed):
    rng = np.random.default_rng(seed)
    nodes = cut_nodes = 0
    for _ in range(200):
        V, seg, starts, w, a, a1, wt, parent, trees = random_threshold_level(rng, criterion)
        want = dense_random_cuts(V, seg, starts, w, a, a1, wt, parent, criterion, trees())
        got = _best_cuts(*_random_cuts(V, seg, starts, w, a, wt, trees()), a1, wt, parent,
                         criterion)
        for g, r in zip(got, want):
            assert g.dtype == r.dtype and g.tobytes() == r.tobytes()
        nodes += len(want[0])
        cut_nodes += int(np.isfinite(want[0]).sum())
    assert 0.5 * nodes < cut_nodes < nodes


def test_random_thresholds_are_generator_uniform_draws():
    # The forest engine draws u and forms lo + (hi - lo) * u, which must be
    # Generator.uniform(lo, hi) bit for bit, ties (lo == hi) included.
    rng = np.random.default_rng(12)
    for seed in range(50):
        lo = rng.normal(size=(40, 4)) * 10.0 ** rng.integers(-5, 6, size=(40, 4))
        hi = lo + np.abs(rng.normal(size=(40, 4))) * 10.0 ** rng.integers(-8, 6, size=(40, 4))
        tie = rng.random((40, 4)) < 0.1
        hi[tie] = lo[tie]
        want = np.random.default_rng(seed).uniform(lo, hi)
        got = lo + (hi - lo) * np.random.default_rng(seed).random(lo.shape)
        assert got.tobytes() == want.tobytes()


def level_synchronous_apply(trees, X):
    """tree_apply as it was before its two phases: every moving pair steps
    through a table of right children, then left ones, in which a leaf is
    its own child, and the moving set is compacted on every step."""
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    leaf = trees.left == -1
    index = np.arange(trees.n_nodes)
    child = np.concatenate((np.where(leaf, index, trees.left + 1),
                            np.where(leaf, index, trees.left)))
    feature = np.where(leaf, 0, trees.feature)
    out = np.empty((trees.n_trees, n))
    chunk = max(1, (1 << 16) // trees.n_trees)
    for lo in range(0, n, chunk):
        rows = X[lo:lo + chunk]
        cells = rows.ravel()
        node = np.repeat(trees.roots, len(rows))
        cell = np.tile(np.arange(len(rows)) * d, trees.n_trees)
        moving = np.arange(node.size)
        while moving.size:
            at = node[moving]
            go_left = cells[cell[moving] + feature[at]] <= trees.threshold[at]
            step = child[at + trees.n_nodes * go_left]
            node[moving] = step
            moving = moving[step != at]
        out[:, lo:lo + len(rows)] = trees.value[node].reshape(trees.n_trees, len(rows))
    return out


def walk_apply(trees, X):
    """Each (tree, row) pair walked from its root, one node at a time."""
    out = np.empty((trees.n_trees, len(X)))
    for t, root in enumerate(trees.roots.tolist()):
        for r, x in enumerate(X):
            node = root
            while trees.left[node] != -1:
                go_left = x[trees.feature[node]] <= trees.threshold[node]
                node = trees.left[node] + (0 if go_left else 1)
            out[t, r] = trees.value[node]
    return out


def staircase_tree():
    """CART on an alternating staircase: every cut ties at zero gain, so it
    peels one row per level down to depth 999."""
    X = np.arange(1000.0)[:, None]
    return X, grow_cart(X, np.arange(1000) % 2, GrowParams())


def oracle_blocks():
    """Blocks of every grower, over four features whose cuts include 0.0,
    with single-leaf trees and all of them concatenated."""
    rng = np.random.default_rng(41)
    X = rng.integers(-3, 4, size=(90, 4)) + 0.5
    X[:, 3] = np.round(rng.normal(size=90), 2)
    y = (X[:, 0] + X[:, 3] + rng.normal(size=90) > 0).astype(np.int64)
    p = rng.uniform(0.1, 0.9, 90)
    w = rng.random(90)
    exhaustive = GrowParams(feature_subsample=2)
    random = GrowParams(criterion="entropy", feature_subsample=2,
                        candidate_mode="random_threshold")
    blocks = {
        "forest-exhaustive": grow_forest(X, y, exhaustive, [stream(1, "t", t) for t in range(4)],
                                         bootstrap=True),
        "forest-random": grow_forest(X, y, random, [stream(2, "t", t) for t in range(4)],
                                     bootstrap=True),
        "cart": grow_cart(X, y, GrowParams(max_depth=4)),
        "variance": grow_tree(X, y - p, GrowParams(criterion="variance", max_depth=4)),
        "second_order": grow_tree(X, p - y, GrowParams(criterion="second_order", max_depth=3),
                                  w=p * (1.0 - p)),
        "stump": boosting._stump(SortedColumns(X), y, w / w.sum())[0],
        "stump-leaf": boosting._stump(SortedColumns(np.full_like(X, 0.5)), y, w / w.sum())[0],
        "cart-leaf": grow_cart(X[:5], np.ones(5, dtype=np.int64), GrowParams()),
    }
    assert blocks["stump"].n_nodes == 3
    assert blocks["stump-leaf"].n_nodes == blocks["cart-leaf"].n_nodes == 1
    blocks["concat"] = TreeBlock.concat(list(blocks.values()))
    return blocks


def oracle_queries(block, n_features, n, rng):
    """n rows of small half-integers, about a third of the cells at one of
    the block's thresholds for that feature and a fifth NaN, +-inf, -0.0 or
    0.0."""
    Q = rng.integers(-4, 5, size=(n, n_features)) + 0.5
    inner = np.flatnonzero(block.left != -1)
    for f in range(n_features):
        cuts = block.threshold[inner[block.feature[inner] == f]]
        at = rng.random(n) < 0.35
        if len(cuts):
            Q[at, f] = rng.choice(cuts, size=at.sum())
    special = rng.random(Q.shape) < 0.2
    Q[special] = rng.choice([np.nan, np.inf, -np.inf, -0.0, 0.0], size=special.sum())
    return Q


ORACLE_BLOCKS = oracle_blocks()


@pytest.mark.parametrize("name", list(ORACLE_BLOCKS))
def test_tree_apply_matches_level_synchronous_and_walk(name):
    block = ORACLE_BLOCKS[name]
    rng = np.random.default_rng(len(name))
    for n in (0, 1, 150):
        Q = oracle_queries(block, 4, n, rng)
        got = tree_apply(block, Q)
        assert got.shape == (block.n_trees, n)
        assert got.tobytes() == level_synchronous_apply(block, Q).tobytes()
        assert got.tobytes() == walk_apply(block, Q).tobytes()


def test_tree_apply_on_the_depth_999_staircase():
    X, block = staircase_tree()
    assert block.n_nodes == 1999
    rng = np.random.default_rng(999)
    Q = np.concatenate((X, oracle_queries(block, 1, 100, rng),
                        [[np.nan], [np.inf], [-np.inf], [-0.0], [999.5]]))
    got = tree_apply(block, Q)
    assert got.tobytes() == level_synchronous_apply(block, Q).tobytes()
    sample = rng.choice(len(Q), size=60, replace=False)
    assert got[:, sample].tobytes() == walk_apply(block, Q[sample]).tobytes()
    assert (got[0, :1000] == np.arange(1000) % 2).all()


def test_scoring_holds_one_row_slice():
    # A 200-tree extra_trees at the study's train shape scores 4096 rows
    # without their (200 x 4096) leaf matrix: past the step table a loaded
    # model caches, one row slice of at most _PAIRS_PER_CHUNK pairs.
    rng = np.random.default_rng(17)
    X = rng.normal(size=(940, 11))
    y = (X[:, 0] + X[:, 1] * X[:, 2] + rng.normal(size=940) > 0).astype(np.int64)
    model = fit(LearnerSpec("extra_trees", {"n_estimators": 200}, seed=1), X, y)
    Q = np.resize(X, (4096, 11))
    model.trees.steps  # cached when a saved model loads
    tracemalloc.start()
    try:
        model.predict_proba(Q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Ten 8-byte words a pair for the traversal's arrays; the leaf matrix
    # alone would be another 6.6 MB.
    assert peak <= 80 * forest._PAIRS_PER_CHUNK


@pytest.mark.parametrize("name", ["staircase", "concat"])
def test_whole_array_steps_stop_at_the_first_step_under_half_moved(name, monkeypatch):
    # Where the first phase stops changes no leaf, only the cost: each of its
    # steps counts the pairs that moved, the last count is the first under
    # half of the chunk's pairs, and the second phase starts from the pairs
    # that moved in that step.
    if name == "staircase":
        Q, block = staircase_tree()
    else:
        block = ORACLE_BLOCKS[name]
        Q = oracle_queries(block, 4, 300, np.random.default_rng(3))
    pairs = block.n_trees * len(Q)
    block.steps  # derived before the counting starts
    counts, starts = [], []
    count_nonzero, flatnonzero = np.count_nonzero, np.flatnonzero

    def counted(moved):
        assert moved.size == pairs  # whole arrays: one chunk of every pair
        counts.append(count_nonzero(moved))
        return counts[-1]

    def started(moved):
        starts.append(count_nonzero(moved))
        return flatnonzero(moved)

    monkeypatch.setattr(np, "count_nonzero", counted)
    monkeypatch.setattr(np, "flatnonzero", started)
    tree_apply(block, Q)
    monkeypatch.undo()
    assert len(counts) > 1 and counts[-1] < pairs / 2 <= min(counts[:-1])
    assert starts == counts[-1:]
