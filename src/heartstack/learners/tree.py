"""Decision-tree core shared by CART, the forests and the boosting stages.

``grow_forest`` grows every classification tree (CART's and the forests')
as one stream of level steps. A step splits every active node, over all
trees and whatever their depths, as segments of one pooled array of (tree,
row) pairs, so it costs the same few dozen numpy calls whether it holds one
tree or many. At the top of each step the next trees join while the pairs
stay within a fixed cap, which keeps the steps full and the working arrays
bounded. A step scores by gini or entropy decrease the cuts between
distinct values of each candidate feature (CART, random forest) or one
uniform threshold per candidate (extremely randomized trees).

``grow_tree`` grows one boosting tree depth first, a node at a time, for
gbm and xgb_style; AdaBoost's stump is one search of its kernel,
``_split_exhaustive``, on the root. The kernel scores all features of a
node at once: the node's columns form a feature-major block, one
contiguous row per feature; each row is sorted, the node's sums are
accumulated with prefix sums along it, and every midpoint between
consecutive distinct values is scored in one pass. The score is the
impurity decrease (variance for gbm's residuals, gini for AdaBoost) or, for
xgb_style, the second-order gain of Chen & Guestrin (arXiv:1603.02754,
eq. 7). X is fixed within a fit, so a node's split path fixes its rows;
``SortedColumns`` sorts each node once and keeps it, as XGBoost's column
blocks do for the root (ibid., section 4.1), and boosting shares it across
all stages of a fit. The cache is interim, until a presorted level-wise
engine keeps every node in order without it.

Tie-breaking is fully deterministic: among equal scores the split with the
lowest feature index wins, then the lowest threshold.

Trees are stored flat, as in scikit-learn's ``Tree``: a ``TreeBlock`` holds
the nodes of all trees of a model in parallel arrays, and ``tree_apply``
scores every (tree, row) pair of a block at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .base import finite_array, pack, unpack

CRITERIA = ("gini", "entropy", "variance")  # best_split's

_FIELDS = ("feature", "threshold", "left", "value", "roots")  # TreeBlock's, in order


@dataclass(frozen=True, eq=False)
class TreeBlock:
    """The nodes of one or more trees as parallel arrays.

    Node i is a leaf when ``left[i] == -1`` and then predicts ``value[i]``
    (class-1 probability, mean residual, boosting leaf weight, or AdaBoost's
    vote times its stump's weight). Otherwise rows with
    ``x[feature[i]] <= threshold[i]`` continue at ``left[i]`` and the others
    at its sibling ``left[i] + 1``. Every child is numbered after its
    parent, so each walk from a root ends. Tree t starts at node
    ``roots[t]``. A leaf's feature is -1 and its threshold 0.0, and an inner
    node's value is 0.0, so a document packs only ``left``, inner-node
    features and thresholds, leaf values and ``roots`` (see ``base.pack``).
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    value: np.ndarray
    roots: np.ndarray

    @property
    def n_trees(self) -> int:
        return len(self.roots)

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    @classmethod
    def concat(cls, blocks: list["TreeBlock"]) -> "TreeBlock":
        """One block holding the trees of ``blocks``, in order."""
        return _join([dict(vars(b)) for b in blocks])

    def to_dict(self) -> dict:
        inner = self.left != -1
        return {"left": pack(self.left, "<i4"), "feature": pack(self.feature[inner], "<i4"),
                "threshold": pack(self.threshold[inner], "<f8"),
                "value": pack(self.value[~inner], "<f8"), "roots": pack(self.roots, "<i4")}

    @classmethod
    def from_dict(cls, d: dict, n_features: int) -> "TreeBlock":
        """Inverse of to_dict, bit for bit. Raises ValueError for any block a
        traversal could not score: fields that are not packed arrays, other
        than one feature and threshold per inner node and one value per
        leaf, children that are out of range or not numbered after their
        parent, split features outside [0, n_features), non-finite
        thresholds, values that are not finite or beyond +-PARAMETER_BOUND,
        or roots outside the node range."""
        left = unpack(d["left"], "<i4")
        n = len(left)
        inner = left != -1
        arrays = {"feature": np.full(n, -1, dtype=np.intp), "threshold": np.zeros(n),
                  "left": left, "value": np.zeros(n)}
        for name, dtype, nodes, kind in (("feature", "<i4", inner, "inner node"),
                                         ("threshold", "<f8", inner, "inner node"),
                                         ("value", "<f8", ~inner, "leaf")):
            packed = unpack(d[name], dtype)
            if len(packed) != np.count_nonzero(nodes):
                raise ValueError(f"tree field {name!r} needs one entry per {kind}")
            arrays[name][nodes] = packed
        # The right child, left + 1, must be in range too (as left >= n - 1,
        # which cannot overflow).
        if ((left[inner] <= np.flatnonzero(inner)) | (left[inner] >= n - 1)).any():
            raise ValueError("a child node is out of range or not after its parent")
        feature = arrays["feature"][inner]
        if ((feature < 0) | (feature >= n_features)).any():
            raise ValueError("a split feature is out of range")
        if not np.isfinite(arrays["threshold"]).all():
            raise ValueError("a tree threshold is not finite")
        finite_array("tree values", arrays["value"], None)
        roots = unpack(d["roots"], "<i4")
        if len(roots) == 0 or ((roots < 0) | (roots >= n)).any():
            raise ValueError("a tree root is missing or out of range")
        return cls(**arrays, roots=roots)


def _join(parts: list[dict]) -> TreeBlock:
    """One block from the field arrays of blocks, in order. It joins one
    field at a time and takes each field's arrays out of ``parts`` as it
    goes, so when nothing else holds them, no more than one field is held
    twice."""
    offsets = np.cumsum([0] + [len(p["feature"]) for p in parts[:-1]])
    joined = {}
    for name in _FIELDS:
        arrays = [p.pop(name) for p in parts]
        if name in ("left", "roots"):
            arrays = [np.where(a == -1, a, a + off) for a, off in zip(arrays, offsets)]
        joined[name] = np.concatenate(arrays)
    return TreeBlock(**joined)


class TreeBuilder:
    """One tree being grown, as [feature, threshold, left, value] node
    records. Node 0 is the root, and a split appends its two children, so
    each child is numbered after its parent and the right one follows the
    left."""

    def __init__(self):
        self.nodes = [[-1, 0.0, -1, 0.0]]

    def split(self, node: int, feature: int, threshold: float) -> tuple[int, int]:
        left = len(self.nodes)
        self.nodes[node][:3] = feature, threshold, left
        self.nodes += [[-1, 0.0, -1, 0.0], [-1, 0.0, -1, 0.0]]
        return left, left + 1

    def leaf(self, node: int, value: float) -> None:
        self.nodes[node][3] = value

    def block(self) -> TreeBlock:
        feature, threshold, left, value = zip(*self.nodes)
        return TreeBlock(np.array(feature, dtype=np.intp), np.array(threshold),
                         np.array(left, dtype=np.intp), np.array(value),
                         np.zeros(1, dtype=np.intp))


@dataclass(frozen=True)
class GrowParams:
    # grow_forest's gini/entropy: class targets; grow_tree's variance: real
    # targets (gbm's residuals) with mean leaves, and second_order:
    # gradients as y and hessians as w
    criterion: str = "gini"
    max_depth: int | None = None
    min_samples_split: int = 2
    feature_subsample: int | None = None  # grow_forest: per-node candidates; None = all
    candidate_mode: str = "exhaustive"  # grow_forest: or "random_threshold"
    reg_lambda: float = 1.0  # second_order: L2 penalty on leaf weights
    gamma: float = 0.0  # second_order: gain a split must exceed


def _xlog2x(p: np.ndarray) -> np.ndarray:
    out = np.zeros_like(p)
    np.log2(p, out=out, where=p > 0)
    return p * out


def _class_impurity(w1, wt, criterion):
    p = np.clip(w1 / wt, 0.0, 1.0)
    if criterion == "gini":
        return 2.0 * p * (1.0 - p)
    return -(_xlog2x(p) + _xlog2x(1.0 - p))


def best_split(X, y, w, features, criterion="gini"):
    """Best (feature, threshold, impurity_decrease) for one node, or None.

    Scans the midpoints between consecutive sorted distinct values of each
    candidate feature. Returns None when no candidate split strictly
    reduces impurity.
    """
    if criterion not in CRITERIA:
        raise ValueError(f"unknown criterion {criterion!r}")
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if n < 2:
        return None
    y = np.asarray(y, dtype=np.float64)
    w = np.ones(n) if w is None else np.asarray(w, dtype=np.float64)
    feats = np.sort(np.asarray(list(features), dtype=np.intp))
    a, b = _target_sums(y, w, criterion)
    found = _split_exhaustive(_sort_block(X[:, feats].T), feats, a, b, w, criterion)
    return None if found is None else found[:3]


def _target_sums(y, w, criterion):
    """Per-row weighted class-1 count, for variance the weighted target and
    its square, for second_order the gradient: the sums the split search
    accumulates next to w."""
    if criterion == "variance":
        return w * y, w * y * y
    if criterion == "second_order":
        return y, None
    return w * (y == 1.0), None


def _impurity(a, b, wt, criterion):
    # a = weighted class-1 count or weighted target sum; b = weighted sum of squares
    if criterion == "variance":
        mean = a / wt
        return np.maximum(b / wt - mean * mean, 0.0)
    return _class_impurity(a, wt, criterion)


@dataclass(frozen=True, eq=False)
class _SortedBlock:
    """A node's candidate columns as the rows of a feature-major block V:
    each row's argsort into V's columns (``order``) and the cuts, the flat
    positions in ``order``, row-major, after which a row's sorted value
    changes, both in the smallest integer type that holds them."""

    V: np.ndarray
    order: np.ndarray
    cuts: np.ndarray


def _sort_block(V) -> _SortedBlock:
    """Sort each row of the feature-major (k, m) block V."""
    m = V.shape[1]
    order = np.argsort(V, axis=1).astype(np.min_scalar_type(m))
    values = np.sort(V, axis=1).ravel()  # V through order, up to equal values
    change = values[1:] != values[:-1]
    change[m - 1::m] = False  # a row's last value against the next row's first
    return _SortedBlock(V, order, np.flatnonzero(change).astype(np.min_scalar_type(V.size)))


class SortedColumns:
    """X made ready for grow_tree: its transpose ``XT`` (one contiguous row
    per feature) and its nodes' sorted blocks on every feature, whose
    ``order`` holds row indices of X. Boosting grows every stage of a fit
    on one. A node's split path, a tuple of (feature, threshold, side) from
    the root ``()``, fixes its rows, so a node is sorted when first asked
    for and kept under its path."""

    def __init__(self, X):
        self.XT = np.ascontiguousarray(np.asarray(X, dtype=np.float64).T)
        self._nodes: dict[tuple, _SortedBlock] = {}

    @cached_property
    def root(self) -> _SortedBlock:
        return _sort_block(self.XT)

    def node(self, path: tuple, rows) -> _SortedBlock:
        """The block of the node at ``path``, which holds ``rows``."""
        if not path:
            return self.root
        if path not in self._nodes:
            block = _sort_block(self.XT[:, rows])
            rows = rows.astype(np.min_scalar_type(len(self.XT[0])))
            self._nodes[path] = _SortedBlock(self.XT, rows.take(block.order), block.cuts)
        return self._nodes[path]


def _split_exhaustive(block: _SortedBlock, feats, a, b, w, criterion, require_positive=True,
                      reg_lambda=1.0, gamma=0.0):
    """The best cut of a node's sorted block, as (feature, threshold, score,
    left sum of a, left weight), or None.

    Only cuts between distinct sorted values are scored. Each row's sums are
    prefix sums in its sort order, and the node totals are those of the
    first row. The cuts are in row-major order, so ties go to the lowest
    feature, then the lowest threshold. a, b and w are indexed as the
    columns of the block's V."""
    cuts = block.cuts
    if not len(cuts):
        return None
    cum_w = np.cumsum(w.take(block.order), axis=1)
    lw = cum_w.take(cuts)
    W = cum_w[0, -1]
    cum_a = np.cumsum(a.take(block.order), axis=1)
    la = cum_a.take(cuts)
    A = cum_a[0, -1]
    rw, ra = W - lw, A - la
    if criterion == "second_order":
        # a and w are gradient and hessian: G_L = la, H_L = lw, G = A, H = W.
        parent_score = A * A / (W + reg_lambda)
        decrease = 0.5 * (la * la / (lw + reg_lambda) + ra * ra / (rw + reg_lambda)
                          - parent_score) - gamma
    else:
        if criterion == "variance":
            cum_b = np.cumsum(b.take(block.order), axis=1)
            B = cum_b[0, -1]
            lb = cum_b.take(cuts)
            rb = B - lb
        else:
            lb = rb = B = None
        parent = float(_impurity(np.array(A), np.array(B) if B is not None else None,
                                 np.array(W), criterion))
        child = (lw * _impurity(la, lb, lw, criterion) + rw * _impurity(ra, rb, rw, criterion)) / W
        decrease = parent - child

    i = np.argmax(decrease)
    best = decrease[i]
    if best == -np.inf:
        return None
    if require_positive and not best > 0.0:
        return None
    row, cut = divmod(int(cuts[i]), block.order.shape[1])
    lo, hi = block.V[row, block.order[row, cut:cut + 2]]
    threshold = (lo + hi) / 2.0
    return int(feats[row]), float(threshold), float(best), float(la[i]), float(lw[i])


def grow_tree(X, y, params: GrowParams, w=None, fitted=None) -> TreeBlock:
    """One boosting tree, split depth first, on strictly positive scores
    only, until depth / min-samples / purity stops.

    Variance leaves hold the weighted mean of y, and second-order leaves
    leaf_weight(G, H, lambda) with y the gradients and w the hessians;
    second-order nodes have no purity stop. If given, ``fitted[i]``
    receives the value of the leaf that training row i reaches, which is
    what tree_apply would return.

    X is a matrix or, to share sorted nodes between the stages of a fit,
    its SortedColumns.
    """
    criterion = params.criterion
    if criterion not in ("variance", "second_order"):
        raise ValueError(f"grow_tree grows boosting trees, not {criterion!r} ones; "
                         "class trees are grow_forest's")
    columns = X if isinstance(X, SortedColumns) else SortedColumns(X)
    XT = columns.XT
    y = np.asarray(y, dtype=np.float64)
    d, n = XT.shape
    if n == 0:
        raise ValueError("cannot grow a tree on zero rows")
    w = np.ones(n) if w is None else np.asarray(w, dtype=np.float64)
    feats = np.arange(d, dtype=np.intp)
    a, b = _target_sums(y, w, criterion)
    tree = TreeBuilder()
    # The path keys the node's sorted block.
    stack = [(0, np.arange(n), 0, ())]
    while stack:
        node, rows, depth, path = stack.pop()
        found = None
        if not ((criterion == "variance" and (y[rows] == y[rows[0]]).all())
                or (params.max_depth is not None and depth >= params.max_depth)
                or len(rows) < params.min_samples_split):
            found = _split_exhaustive(columns.node(path, rows), feats, a, b, w, criterion,
                                      reg_lambda=params.reg_lambda, gamma=params.gamma)
        if found is None:
            if criterion == "second_order":
                value = leaf_weight(y[rows].sum(), w[rows].sum(), params.reg_lambda)
            else:
                wr = w[rows]
                value = float((wr * y[rows]).sum() / wr.sum())
            tree.leaf(node, value)
            if fitted is not None:
                fitted[rows] = value
            continue

        feature, threshold = found[:2]
        left, right = tree.split(node, feature, threshold)
        go_left = XT[feature, rows] <= threshold
        stack.append((right, rows[~go_left], depth + 1, (*path, (feature, threshold, 1))))
        stack.append((left, rows[go_left], depth + 1, (*path, (feature, threshold, 0))))
    return tree.block()


def leaf_weight(g_sum: float, h_sum: float, reg_lambda: float) -> float:
    """The second-order leaf weight -G / (H + lambda)."""
    return -g_sum / (h_sum + reg_lambda)


# Trees of a forest are grown together in level steps of at most this many
# (tree, row) pairs, which bounds the engine's working arrays whatever the
# number of trees.
_PAIRS_PER_STEP = 1 << 13


def grow_forest(X, y, params: GrowParams, rngs, bootstrap: bool = False) -> TreeBlock:
    """Classification trees, one per generator in ``rngs``, grown together
    level by level.

    A node is a leaf, valued at its weighted class-1 share, when it is
    pure, at ``max_depth``, below ``min_samples_split`` rows or without a
    cut. Otherwise it splits on its best cut over a candidate feature
    subset, even at zero impurity decrease (parity patterns need the
    lookahead): exhaustive mode scores every midpoint between consecutive
    distinct values of each candidate, random_threshold mode one uniform
    threshold per candidate; the largest impurity decrease wins, ties to
    the lowest feature index, then the lowest threshold.

    The trees run as one stream of level steps. Each step splits every
    active node, over all trees, and at its top admits the next trees, in
    order, while the active (tree, row) pairs stay within
    ``_PAIRS_PER_STEP`` (a tree is always admitted when nothing is active).
    So a tree starts as soon as there is room, whatever depth the others
    have reached, and a step holds as many pairs as the cap allows.

    Tree t draws only from ``rngs[t]``: with ``bootstrap``, first its n
    resampled rows, whose duplicates become integer row weights (the same
    tree on ~40% fewer rows; without bootstrap every row weighs one); then,
    level by level, the candidate features of its splittable nodes and, in
    random_threshold mode, their thresholds. Class sums are integer-valued,
    so every tree comes out bit for bit as if grown alone.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    n, d = X.shape
    if n == 0:
        raise ValueError("cannot grow a tree on zero rows")
    y1 = (np.asarray(y, dtype=np.float64) == 1.0).astype(np.float64)
    # Exhaustive mode sorts by each value's rank among its feature's values.
    ranks = (np.stack([np.unique(col, return_inverse=True)[1] for col in X.T], axis=1)
             if params.candidate_mode == "exhaustive" else None)
    k = min(params.feature_subsample or d, d)
    n_trees = len(rngs)

    def rows_of(t):
        """Tree t's rows of nonzero weight, in order, and their weights."""
        if not bootstrap:
            return np.arange(n), np.ones(n)
        weights = np.bincount(rngs[t].integers(0, n, size=n), minlength=n)
        rows = np.flatnonzero(weights)
        return rows, weights[rows].astype(np.float64)

    # The active nodes, in (tree, node id) order; node i owns the next
    # count[i] pairs of row, w and a. Admitted trees come after every
    # active one, so the order holds.
    tree = local = depth = count = np.zeros(0, dtype=np.intp)
    a1 = wt = w = a = np.zeros(0)
    row = np.zeros(0, dtype=np.intp)
    next_id = np.ones(n_trees, dtype=np.intp)  # per tree, the next free node id
    records = _NodeRecords(n)
    admitted, waiting = 0, None  # trees admitted; the next tree's rows once drawn
    while True:
        new = []
        pairs = len(row)
        while admitted < n_trees:
            if waiting is None:
                waiting = rows_of(admitted)
            if pairs and pairs + len(waiting[0]) > _PAIRS_PER_STEP:
                break
            new.append(waiting)
            pairs += len(waiting[0])
            admitted, waiting = admitted + 1, None
        if new:
            rows, weights = zip(*new)
            targets = [wr * y1[r] for r, wr in new]
            tree = np.concatenate((tree, np.arange(admitted - len(new), admitted)))
            local = np.concatenate((local, np.zeros(len(new), dtype=np.intp)))
            depth = np.concatenate((depth, np.zeros(len(new), dtype=np.intp)))
            count = np.concatenate((count, [len(r) for r in rows]))
            a1 = np.concatenate((a1, [t.sum() for t in targets]))
            wt = np.concatenate((wt, [wr.sum() for wr in weights]))
            row, w, a = (np.concatenate((row, *rows)), np.concatenate((w, *weights)),
                         np.concatenate((a, *targets)))
        if not len(tree):
            break

        grow = (a1 > 0.0) & (a1 < wt) & (count >= params.min_samples_split)
        if params.max_depth is not None:
            grow &= depth < params.max_depth
        feature = np.full(len(tree), -1, dtype=np.intp)
        threshold = np.zeros(len(tree))
        left_id = np.full(len(tree), -1, dtype=np.intp)
        value = np.minimum(np.maximum(a1, 0.0), wt) / wt
        step = (tree, local, feature, threshold, left_id, value)  # recorded once filled in

        on = np.repeat(grow, count)
        row, w, a = row[on], w[on], a[on]
        node = np.flatnonzero(grow)
        tree, depth, a1, wt, count = tree[node], depth[node], a1[node], wt[node], count[node]
        if not len(node):
            records.add(*step)
            local = tree  # empty, as is every active array
            continue
        m = len(node)
        seg = np.repeat(np.arange(m), count)
        starts = np.cumsum(count) - count
        # Each tree's generator with the range of its nodes in this step.
        trees_here, first, per_tree = np.unique(tree, return_index=True, return_counts=True)
        draws = [(rngs[t], lo, lo + c) for t, lo, c in zip(trees_here, first, per_tree)]
        if k >= d:
            feats = np.broadcast_to(np.arange(d, dtype=np.intp), (m, d))
        else:
            noise = np.concatenate([rng.random((hi - lo, d)) for rng, lo, hi in draws])
            feats = np.sort(np.argsort(noise, axis=1)[:, :k], axis=1)
        parent = _class_impurity(a1, wt, params.criterion)
        if params.candidate_mode == "exhaustive":
            gain, col, thr, la, lw = _exhaustive_cuts(X, ranks, row, feats, seg, starts, w, a,
                                                      a1, wt, parent, params.criterion)
        else:
            # Each pair's candidate cells as flat indices into X. np.take of
            # whole rows is several times faster than indexing with seg.
            cells = np.take(feats, seg, axis=0)
            cells += row[:, None] * d
            gain, col, thr, la, lw = _random_cuts(np.take(X, cells), seg, starts, w, a, a1, wt,
                                                  parent, params.criterion, draws)
            del cells

        best = feats[np.arange(m), col]  # each node's best feature
        go_left = np.take(X, row * d + np.take(best, seg)) <= np.take(thr, seg)
        n_left = np.add.reduceat(go_left.astype(np.intp), starts)
        split = gain > -np.inf
        at = node[split]
        feature[at] = best[split]
        threshold[at] = thr[split]
        value[at] = 0.0
        # A tree's split nodes take its next free ids in pairs, in order.
        tree = tree[split]
        per_split = np.bincount(tree, minlength=n_trees)
        nth = np.arange(len(tree)) - (np.cumsum(per_split) - per_split)[tree]
        left_id[at] = next_id[tree] + 2 * nth
        next_id += 2 * per_split

        # Children in node order, each left child before its right sibling;
        # a stable sort keeps each child's pairs in their previous order.
        local = _siblings(left_id[at], left_id[at] + 1)
        a1 = _siblings(la[split], a1[split] - la[split])
        wt = _siblings(lw[split], wt[split] - lw[split])
        count = _siblings(n_left[split], count[split] - n_left[split])
        tree = np.repeat(tree, 2)
        depth = np.repeat(depth[split] + 1, 2)
        order = np.lexsort((~go_left, seg))
        order = order[split[seg[order]]]
        row, w, a = row[order], w[order], a[order]
        records.add(*step)

    return records.block(next_id)


class _NodeRecords:
    """A forest's nodes in the order they were grown: per node its key
    (tree, node id) as one integer, since a tree on n rows has fewer than
    2n nodes, then its feature, threshold, left child id and value. Each
    field is one array that doubles when full. So the records are a few
    large blocks of memory, not a few small arrays per step, and each goes
    back to the system as soon as block() has moved it."""

    _DTYPES = (np.intp, np.intp, np.float64, np.intp, np.float64)

    def __init__(self, n: int):
        self.n = n
        self.size = 0
        self.fields = [np.empty(1 << 12, dtype) for dtype in self._DTYPES]

    def add(self, tree, local, feature, threshold, left_id, value) -> None:
        end = self.size + len(tree)
        for i, array in enumerate((tree * 2 * self.n + local, feature, threshold, left_id, value)):
            if end > len(self.fields[i]):
                grown = np.empty(max(end, 2 * len(self.fields[i])), self._DTYPES[i])
                grown[:self.size] = self.fields[i][:self.size]
                self.fields[i] = grown
            self.fields[i][self.size:end] = array
        self.size = end

    def block(self, next_id) -> TreeBlock:
        """The trees as one block: tree t's node i goes to roots[t] + i. It
        moves one field at a time and frees it, so no more than one field is
        held twice."""
        size, fields = self.size, self.fields
        self.fields = None
        roots = np.cumsum(next_id) - next_id
        place, left = fields[0][:size], fields[3][:size]
        for lo in range(0, size, _PAIRS_PER_STEP):  # in slices, to keep temporaries small
            tree, local = np.divmod(place[lo:lo + _PAIRS_PER_STEP], 2 * self.n)
            place[lo:lo + _PAIRS_PER_STEP] = roots[tree] + local
            ids = left[lo:lo + _PAIRS_PER_STEP]
            np.add(ids, roots[tree], out=ids, where=ids != -1)
        moved = []
        for i in range(1, 5):
            field = np.empty(size, self._DTYPES[i])
            field[place] = fields[i][:size]
            fields[i] = None
            moved.append(field)
        return TreeBlock(*moved, roots)


def _siblings(left, right) -> np.ndarray:
    return np.stack((left, right), axis=1).ravel()


def _random_cuts(V, seg, starts, w, a, a1, wt, parent, criterion, draws):
    """Per node: the best of one uniform threshold per candidate column, as
    (gain, column, threshold, left class-1 weight, left weight); the gain
    is -inf when no threshold separates the node's rows. ``draws`` holds
    each tree's generator with the range of its nodes."""
    lo = np.minimum.reduceat(V, starts, axis=0)
    hi = np.maximum.reduceat(V, starts, axis=0)
    # Generator.uniform(lo, hi) computes lo + (hi - lo) * u from the same u,
    # bit for bit; drawing u directly skips its per-call argument checks.
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
    return gain[at, col], col, thr[at, col], la[at, col], lw[at, col]


def _exhaustive_cuts(X, ranks, row, feats, seg, starts, w, a, a1, wt, parent, criterion):
    """Per node: the best midpoint cut over its candidate columns, as
    (gain, column, threshold, left class-1 weight, left weight); the gain
    is -inf when every candidate column is constant on the node. Pair i is
    row ``row[i]`` of node ``seg[i]``, whose candidate features are
    ``feats[seg[i]]``; ``ranks`` holds each value's rank in its column of X.

    One candidate column at a time, the pairs are sorted by (node, value
    rank). Pairs with equal keys may come out in any order: the
    integer-valued prefix sums agree after the last of them, the only place
    a cut can sit. Only those cuts are scored."""
    n, d = X.shape
    m, total = len(starts), len(seg)
    ends = np.append(starts[1:], total) - 1  # each segment's last position
    same_node = seg[1:] == seg[:-1]
    node_key = seg * n
    best_gain = np.full(m, -np.inf)
    best_col = np.zeros(m, dtype=np.intp)
    best_thr, best_la, best_lw = np.zeros(m), np.zeros(m), np.zeros(m)
    for j in range(feats.shape[1]):
        cells = row * d + np.take(feats[:, j], seg)  # flat indices into X
        order = np.argsort(node_key + np.take(ranks, cells))
        Vs = np.take(X, cells[order])
        # A cut sits after position i when i+1 is in the same segment and
        # the sorted value strictly increases.
        cut = np.flatnonzero(same_node & (Vs[1:] > Vs[:-1]))
        if not len(cut):
            continue
        at = seg[cut]
        # Prefix sums over the whole level, less the sum before each segment.
        cw = np.cumsum(w[order])
        ca = np.cumsum(a[order])
        lw = cw[cut] - np.concatenate(([0.0], cw[ends[:-1]]))[at]
        la = ca[cut] - np.concatenate(([0.0], ca[ends[:-1]]))[at]
        rw = wt[at] - lw
        ra = a1[at] - la
        child = (lw * _class_impurity(la, np.where(lw > 0, lw, 1.0), criterion)
                 + rw * _class_impurity(ra, np.where(rw > 0, rw, 1.0), criterion)) / wt[at]
        gain = parent[at] - child
        # Group the cuts by segment; per group, the best gain and the first
        # cut that reaches it.
        opens = np.append(True, at[1:] != at[:-1])
        lo = np.flatnonzero(opens)
        nodes = at[lo]
        seg_max = np.maximum.reduceat(gain, lo)
        is_max = gain == seg_max[np.cumsum(opens) - 1]
        first = np.minimum.reduceat(np.where(is_max, np.arange(len(cut)), len(cut)), lo)
        better = seg_max > best_gain[nodes]  # strict: earlier columns win ties
        nodes, i = nodes[better], first[better]
        pos = cut[i]
        best_gain[nodes] = seg_max[better]
        best_col[nodes] = j
        best_thr[nodes] = (Vs[pos] + Vs[pos + 1]) / 2.0
        best_la[nodes] = la[i]
        best_lw[nodes] = lw[i]
    return best_gain, best_col, best_thr, best_la, best_lw


# Rows are scored in chunks of at most this many (tree, row) pairs, which
# bounds the traversal's working arrays whatever the number of rows.
_PAIRS_PER_CHUNK = 1 << 16


def tree_apply(trees: TreeBlock, X) -> np.ndarray:
    """Leaf value of every (tree, row) pair, shape (n_trees, n_rows).

    All pairs descend one level per step, the level-synchronous traversal of
    Hummingbird (Nakandala et al., OSDI 2020); a pair leaves the moving set
    once it reaches a leaf.
    """
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    leaf = trees.left == -1
    index = np.arange(trees.n_nodes)
    # Right children, then left ones; a leaf is its own child on both sides.
    child = np.concatenate((np.where(leaf, index, trees.left + 1),
                            np.where(leaf, index, trees.left)))
    feature = np.where(leaf, 0, trees.feature)
    out = np.empty((trees.n_trees, n))
    chunk = max(1, _PAIRS_PER_CHUNK // trees.n_trees)
    for lo in range(0, n, chunk):
        rows = X[lo:lo + chunk]
        cells = rows.ravel()
        node = np.repeat(trees.roots, len(rows))
        cell = np.tile(np.arange(len(rows)) * d, trees.n_trees)  # pair's row offset in cells
        moving = np.arange(node.size)
        while moving.size:
            at = node[moving]
            go_left = cells[cell[moving] + feature[at]] <= trees.threshold[at]
            step = child[at + trees.n_nodes * go_left]
            node[moving] = step
            moving = moving[step != at]
        out[:, lo:lo + len(rows)] = trees.value[node].reshape(trees.n_trees, len(rows))
    return out
