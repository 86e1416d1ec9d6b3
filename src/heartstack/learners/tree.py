"""Decision-tree core shared by CART, the forests and the boosting stages.

``grow_forest`` grows every classification tree (CART's and the forests')
as one stream of level steps. A step splits every active node, over all
trees and whatever their depths, as segments of one pooled array of (tree,
row) pairs, so it costs the same few dozen numpy calls whether it holds one
tree or many. At the top of each step the next trees join while the pairs
stay within a fixed cap, which keeps the steps full and the working arrays
bounded. A step lists the cuts between distinct values of each candidate
feature (CART, random forest) or one uniform threshold per candidate
(extremely randomized trees), and one rule, ``_best_cuts``, picks each
node's cut of largest gini or entropy decrease.

``grow_tree`` grows one boosting tree breadth first, a node at a time, for
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
the nodes of all trees of a model in parallel arrays. Node order is the
tree: both growers append a tree's nodes breadth first, so a node's
children follow from which nodes are inner, and only ``_derive_left``
works out where they are. ``tree_apply`` scores every (tree, row) pair of
a block and the rows it is given at once, in two phases; a model passes it
one row slice at a time, which bounds its memory. Every leaf is a
self-loop, so at first all pairs step together over whole arrays, with no
gather or scatter of the moving set; once fewer than half of them move in
a step, only those go on, compacted on every step as in Hummingbird's
level-synchronous traversal (Nakandala et al., OSDI 2020). A row goes left
where its value is at most the threshold, so NaN goes right at every inner
node, and a leaf keeps every row, NaN or not.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .base import finite_array, pack, unpack

CRITERIA = ("gini", "entropy", "variance")  # best_split's


@dataclass(frozen=True, eq=False)
class TreeBlock:
    """The nodes of one or more trees as parallel arrays.

    Node i is a leaf when ``feature[i] == -1`` and then predicts
    ``value[i]`` (class-1 probability, mean residual, boosting leaf weight,
    or AdaBoost's vote times its stump's weight). Otherwise rows with
    ``x[feature[i]] <= threshold[i]`` continue at its left child
    ``left[i]`` and the others at ``left[i] + 1``. Tree t starts at node
    ``roots[t]``, and its nodes run up to the next root. A leaf's threshold
    is 0.0, and an inner node's value is 0.0.

    The numbering invariant: node order is the tree. The j-th inner node
    of a tree, in node order, has its children at ``root + 2j + 1`` and
    ``root + 2j + 2``. So every child is numbered after its parent, each
    walk from a root ends, and a tree of m inner nodes has 2m + 1 nodes.
    ``left`` is derived from the invariant on every read. A document
    (``to_dict``) stores one inner-node bit per node, the features and
    thresholds of inner nodes, a codebook of the distinct leaf values with
    one index into it per leaf, and ``roots``.
    """

    feature: np.ndarray
    threshold: np.ndarray
    value: np.ndarray
    roots: np.ndarray

    @property
    def n_trees(self) -> int:
        return len(self.roots)

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    @property
    def left(self) -> np.ndarray:
        """Each node's left child, -1 for a leaf, derived on every read.
        ValueError if the nodes break the numbering invariant."""
        return _derive_left(self.n_nodes, np.flatnonzero(self.feature != -1), self.roots)

    @cached_property
    def steps(self) -> tuple[np.ndarray, np.ndarray]:
        """tree_apply's step table, the one per-node table a block caches:
        each node's right child, or itself plus one for a leaf, and the
        column it reads in X with a 0.0 column put first (0 for a leaf)."""
        return _steps(self.left, self.feature)

    @classmethod
    def concat(cls, blocks: list["TreeBlock"]) -> "TreeBlock":
        """One block holding the trees of ``blocks``, in order."""
        offsets = np.cumsum([0] + [b.n_nodes for b in blocks[:-1]])
        return cls(*(np.concatenate([getattr(b, name) for b in blocks])
                     for name in ("feature", "threshold", "value")),
                   np.concatenate([b.roots + off for b, off in zip(blocks, offsets)]))

    def to_dict(self, n_features: int) -> dict:
        """The block as packed arrays, for a model reading ``n_features``
        features. The codebook is sorted by value and keeps -0.0 apart from
        0.0."""
        inner = self.feature != -1
        bits, leaves = np.unique(self.value[~inner].view(np.uint64), return_inverse=True)
        codebook = bits.view(np.float64)
        order = np.argsort(codebook, kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        return {"inner": pack(np.packbits(inner, bitorder="little"), "<u1"),
                "feature": pack(self.feature[inner], _index_dtype(n_features)),
                "threshold": pack(self.threshold[inner], "<f8"),
                "leaf_values": pack(codebook[order], "<f8"),
                "leaves": pack(rank[leaves], _index_dtype(len(order))),
                "roots": pack(self.roots, "<i4")}

    @classmethod
    def from_dict(cls, d: dict, n_features: int) -> "TreeBlock":
        """Inverse of to_dict, bit for bit. Raises ValueError for any block a
        traversal could not score: fields that are not packed arrays; other
        than one feature per threshold, or one inner-node bit per inner
        node and leaf with zero pad bits and as many set bits as
        thresholds; roots that do not start at node 0 and increase, or a
        tree of other than 2m + 1 nodes for its m inner nodes; a derived
        child not after its parent; split features outside [0, n_features);
        non-finite thresholds; codebook values that are not finite or beyond
        +-PARAMETER_BOUND; or a leaf index past the codebook."""
        threshold = unpack(d["threshold"], "<f8")
        feature = unpack(d["feature"], _index_dtype(n_features))
        if len(feature) != len(threshold):
            raise ValueError("tree field 'feature' needs one entry per threshold")
        codebook = finite_array("tree leaf values", unpack(d["leaf_values"], "<f8"), None)
        leaves = unpack(d["leaves"], _index_dtype(len(codebook)))
        n = len(threshold) + len(leaves)
        packed = unpack(d["inner"], "<u1")
        if len(packed) != (n + 7) // 8:
            raise ValueError("the inner-node bitmap needs one bit per node")
        inner = np.unpackbits(packed.astype(np.uint8), bitorder="little").view(bool)
        if inner[n:].any():
            raise ValueError("the inner-node bitmap's pad bits must be 0")
        inner_at = np.flatnonzero(inner[:n])
        if len(inner_at) != len(threshold):
            raise ValueError("the inner-node bitmap needs one set bit per threshold")
        roots = unpack(d["roots"], "<i4")
        left = _derive_left(n, inner_at, roots)
        if (feature >= n_features).any():
            raise ValueError("a split feature is out of range")
        if not np.isfinite(threshold).all():
            raise ValueError("a tree threshold is not finite")
        if (leaves >= len(codebook)).any():
            raise ValueError("a leaf index is past the codebook")
        # Scattering through indices is about twice as fast as through masks.
        arrays = {"feature": np.full(n, -1, dtype=np.intp), "threshold": np.zeros(n),
                  "value": np.zeros(n)}
        arrays["feature"][inner_at] = feature
        arrays["threshold"][inner_at] = threshold
        arrays["value"][np.flatnonzero(left == -1)] = codebook[leaves]
        block = cls(**arrays, roots=roots)
        vars(block)["steps"] = _steps(left, block.feature)  # so a bad document fails to load
        return block


def _steps(left, feature) -> tuple[np.ndarray, np.ndarray]:
    return np.where(left == -1, np.arange(len(left)), left) + 1, feature + 1


def _index_dtype(n: int) -> str:
    """The smallest of "<u1", "<u2" and "<u4" that holds the indices of n
    items."""
    return "<u1" if n <= 1 << 8 else "<u2" if n <= 1 << 16 else "<u4"


def _derive_left(n: int, inner_at, roots) -> np.ndarray:
    """Each of n nodes' left child under the numbering invariant, -1 for a
    leaf, from the inner nodes' positions ``inner_at`` (ascending) and
    where trees start. ValueError unless the roots start at node 0 and
    increase, each tree has 2m + 1 nodes for its m inner nodes, and every
    child comes after its parent.

    Tree t's roots[t] nodes before it hold M inner nodes and t trees, so
    roots[t] = 2M + t, and its j-th inner node, the (M + j)-th of the
    block, has its left child at roots[t] + 2j + 1 = 2(M + j) + t + 1."""
    if len(roots) == 0 or roots[0] != 0 or (np.diff(roots) <= 0).any() or roots[-1] >= n:
        raise ValueError("a tree root is missing or out of range, or roots do not increase "
                         "from node 0")
    tree = np.searchsorted(roots, inner_at, side="right") - 1  # each inner node's
    if (np.diff(np.append(roots, n)) != 2 * np.bincount(tree, minlength=len(roots)) + 1).any():
        raise ValueError("a tree's node count is not twice its inner nodes plus one")
    children = 2 * np.arange(len(inner_at)) + tree + 1
    if (children <= inner_at).any():
        raise ValueError("a child node is not after its parent")
    left = np.full(n, -1, dtype=np.intp)
    left[inner_at] = children
    return left


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
    """One boosting tree, split breadth first, on strictly positive scores
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
    nodes = []  # (feature, threshold, value) in node order: first in, first out
    queue = deque([(np.arange(n), 0, ())])  # the path keys the node's sorted block
    while queue:
        rows, depth, path = queue.popleft()
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
            nodes.append((-1, 0.0, value))
            if fitted is not None:
                fitted[rows] = value
            continue

        feature, threshold = found[:2]
        nodes.append((feature, threshold, 0.0))
        go_left = XT[feature, rows] <= threshold
        queue.append((rows[go_left], depth + 1, (*path, (feature, threshold, 0))))
        queue.append((rows[~go_left], depth + 1, (*path, (feature, threshold, 1))))
    return one_tree(nodes)


def one_tree(nodes) -> TreeBlock:
    """The block of one tree from its (feature, threshold, value) nodes in
    node order."""
    feature, threshold, value = zip(*nodes)
    return TreeBlock(np.array(feature, dtype=np.intp), np.array(threshold), np.array(value),
                     np.zeros(1, dtype=np.intp))


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
    lookahead). Exhaustive mode offers every midpoint between consecutive
    distinct values of each candidate, random_threshold mode one uniform
    threshold per candidate; for both, ``_best_cuts`` takes the largest
    impurity decrease, ties to the lowest feature index, then the lowest
    threshold.

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

    # The active nodes, in (tree, node) order; node i owns the next
    # count[i] pairs of row, w and a. Admitted trees come after every
    # active one, so the order holds.
    tree = depth = count = np.zeros(0, dtype=np.intp)
    a1 = wt = w = a = np.zeros(0)
    row = np.zeros(0, dtype=np.intp)
    records = _NodeRecords(n, n_trees)
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
        value = np.minimum(np.maximum(a1, 0.0), wt) / wt
        step = (tree, feature, threshold, value)  # recorded once filled in

        on = np.repeat(grow, count)
        row, w, a = row[on], w[on], a[on]
        node = np.flatnonzero(grow)
        tree, depth, a1, wt, count = tree[node], depth[node], a1[node], wt[node], count[node]
        if not len(node):
            records.add(*step)
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
        if params.candidate_mode == "exhaustive":
            candidates = _exhaustive_cuts(X, ranks, row, feats, seg, starts, w, a)
        else:
            # Each pair's candidate cells as flat indices into X. np.take of
            # whole rows is several times faster than indexing with seg.
            cells = np.take(feats, seg, axis=0)
            cells += row[:, None] * d
            candidates = _random_cuts(np.take(X, cells), seg, starts, w, a, wt, draws)
            del cells
        parent = _class_impurity(a1, wt, params.criterion)
        gain, col, thr, la, lw = _best_cuts(*candidates, a1, wt, parent, params.criterion)

        best = feats[np.arange(m), col]  # each node's best feature
        go_left = np.take(X, row * d + np.take(best, seg)) <= np.take(thr, seg)
        n_left = np.add.reduceat(go_left.astype(np.intp), starts)
        split = gain > -np.inf
        at = node[split]
        feature[at] = best[split]
        threshold[at] = thr[split]
        value[at] = 0.0

        # Children in node order, each left child before its right sibling;
        # a stable sort keeps each child's pairs in their previous order.
        a1 = _siblings(la[split], a1[split] - la[split])
        wt = _siblings(lw[split], wt[split] - lw[split])
        count = _siblings(n_left[split], count[split] - n_left[split])
        tree = np.repeat(tree[split], 2)
        depth = np.repeat(depth[split] + 1, 2)
        order = np.lexsort((~go_left, seg))
        order = order[split[seg[order]]]
        row, w, a = row[order], w[order], a[order]
        records.add(*step)

    return records.block()


class _NodeRecords:
    """A forest's nodes in the order they were grown: per node its key
    (tree, node number in its tree) as one integer, since a tree on n rows
    has fewer than 2n nodes, then its feature, threshold and value. Each
    field is one array that doubles when full. So the records are a few
    large blocks of memory, not a few small arrays per step, and each goes
    back to the system as soon as block() has moved it."""

    _DTYPES = (np.intp, np.intp, np.float64, np.float64)

    def __init__(self, n: int, n_trees: int):
        self.n = n
        self.size = 0
        self.fields = [np.empty(1 << 12, dtype) for dtype in self._DTYPES]
        self.per_tree = np.zeros(n_trees, dtype=np.intp)  # nodes recorded so far

    def add(self, tree, feature, threshold, value) -> None:
        """Record a step's nodes, given in (tree, node) order. A tree's
        levels arrive in order, so its nodes are numbered on from its
        count."""
        count = np.bincount(tree, minlength=len(self.per_tree))
        local = np.arange(len(tree)) + (self.per_tree - (np.cumsum(count) - count))[tree]
        self.per_tree += count
        end = self.size + len(tree)
        for i, array in enumerate((tree * 2 * self.n + local, feature, threshold, value)):
            if end > len(self.fields[i]):
                grown = np.empty(max(end, 2 * len(self.fields[i])), self._DTYPES[i])
                grown[:self.size] = self.fields[i][:self.size]
                self.fields[i] = grown
            self.fields[i][self.size:end] = array
        self.size = end

    def block(self) -> TreeBlock:
        """The trees as one block: tree t's node i goes to roots[t] + i. It
        moves one field at a time and frees it, so no more than one field is
        held twice."""
        size, fields = self.size, self.fields
        self.fields = None
        roots = np.cumsum(self.per_tree) - self.per_tree
        place = fields[0][:size]
        for lo in range(0, size, _PAIRS_PER_STEP):  # in slices, to keep temporaries small
            tree, local = np.divmod(place[lo:lo + _PAIRS_PER_STEP], 2 * self.n)
            place[lo:lo + _PAIRS_PER_STEP] = roots[tree] + local
        moved = []
        for i in range(1, 4):
            field = np.empty(size, self._DTYPES[i])
            field[place] = fields[i][:size]
            fields[i] = None
            moved.append(field)
        return TreeBlock(*moved, roots)


def _siblings(left, right) -> np.ndarray:
    return np.stack((left, right), axis=1).ravel()


def _random_cuts(V, seg, starts, w, a, wt, draws):
    """One uniform threshold per node and candidate column, kept where it
    separates the node's rows, as candidate cuts (node, column, threshold,
    left class-1 weight, left weight) in node, then column order.
    ``draws`` holds each tree's generator with the range of its nodes."""
    lo = np.minimum.reduceat(V, starts, axis=0)
    hi = np.maximum.reduceat(V, starts, axis=0)
    # Generator.uniform(lo, hi) computes lo + (hi - lo) * u from the same u,
    # bit for bit; drawing u directly skips its per-call argument checks.
    u = np.concatenate([rng.random((e - b, V.shape[1])) for rng, b, e in draws])
    thr = lo + (hi - lo) * u
    left = V <= np.take(thr, seg, axis=0)
    lw = np.add.reduceat(left * w[:, None], starts, axis=0)
    la = np.add.reduceat(left * a[:, None], starts, axis=0)
    # The lowest value always goes left (thr >= lo), so a threshold separates
    # the rows exactly when some weight stays right.
    node, col = np.nonzero(lw < wt[:, None])
    return node, col, thr[node, col], la[node, col], lw[node, col]


def _exhaustive_cuts(X, ranks, row, feats, seg, starts, w, a):
    """Every midpoint between consecutive distinct values of each node's
    candidate columns, as candidate cuts (node, column, threshold, left
    class-1 weight, left weight) in column order, each node's in threshold
    order. Pair i is row ``row[i]`` of node ``seg[i]``, whose candidate
    features are ``feats[seg[i]]``; ``ranks`` holds each value's rank in
    its column of X.

    One candidate column at a time, the pairs are sorted by (node, value
    rank). Pairs with equal keys may come out in any order: the
    integer-valued prefix sums agree after the last of them, the only place
    a cut can sit."""
    n, d = X.shape
    ends = np.append(starts[1:], len(seg)) - 1  # each segment's last position
    same_node = seg[1:] == seg[:-1]
    node_key = seg * n
    parts = []
    for j in range(feats.shape[1]):
        cells = row * d + np.take(feats[:, j], seg)  # flat indices into X
        order = np.argsort(node_key + np.take(ranks, cells))
        Vs = np.take(X, cells[order])
        # A cut sits after position i when i+1 is in the same segment and
        # the sorted value strictly increases.
        cut = np.flatnonzero(same_node & (Vs[1:] > Vs[:-1]))
        at = seg[cut]
        # Prefix sums over the whole level, less the sum before each segment.
        cw = np.cumsum(w[order])
        ca = np.cumsum(a[order])
        parts.append((at, np.full(len(cut), j), (Vs[cut] + Vs[cut + 1]) / 2.0,
                      ca[cut] - np.concatenate(([0.0], ca[ends[:-1]]))[at],
                      cw[cut] - np.concatenate(([0.0], cw[ends[:-1]]))[at]))
    return tuple(np.concatenate(field) for field in zip(*parts))


def _best_cuts(node, col, thr, la, lw, a1, wt, parent, criterion):
    """Per node, the candidate cut of largest impurity decrease, as (gain,
    column, threshold, left class-1 weight, left weight); a node without a
    candidate has gain -inf and zeros. Candidate i is cut ``thr[i]`` of
    column ``col[i]`` of node ``node[i]`` and leaves weight on both sides.
    Each node's candidates are in column, then threshold order, so taking
    the first that reaches the best gain breaks ties to the lowest feature,
    then the lowest threshold."""
    rw = wt[node] - lw
    ra = a1[node] - la
    child = (lw * _class_impurity(la, lw, criterion)
             + rw * _class_impurity(ra, rw, criterion)) / wt[node]
    gain = parent[node] - child
    best = np.full(len(wt), -np.inf)
    np.maximum.at(best, node, gain)
    hit = np.flatnonzero(gain == best[node])
    first = np.full(len(wt), len(node))  # past the end: no candidate
    np.minimum.at(first, node[hit], hit)
    return best, *(np.append(x, 0)[first] for x in (col, thr, la, lw))


def tree_apply(trees: TreeBlock, X) -> np.ndarray:
    """Leaf value of every (tree, row) pair, shape (n_trees, n_rows).

    One step moves a pair from node i to ``right[i] - (x[feature[i]] <=
    threshold[i])``, through the block's cached ``steps`` table, over X with
    a constant 0.0 column put first. An inner node's right child is
    ``left[i] + 1``, so a pair goes left exactly when the comparison holds,
    and NaN goes right. A leaf is a self-loop: it reads the 0.0 column
    against its threshold, 0.0, which always holds, and its right is itself
    plus one.

    The traversal runs in two phases. First every pair steps, over whole
    arrays, until a step in which fewer than half of them moved; a pair
    that did not move is at a leaf, because an inner node always moves.
    Then only the pairs that moved in that step go on, and the moving set
    is compacted on every step, the level-synchronous traversal of
    Hummingbird (Nakandala et al., OSDI 2020). It holds about ten words
    per (tree, row) pair of X at once, with no bound of its own: a caller
    must pass row slices, as TreeEnsembleModel._sums does."""
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    if not n:
        return np.empty((trees.n_trees, 0))
    right, feature = trees.steps
    padded = np.zeros((n, d + 1))
    padded[:, 1:] = X
    cells = padded.ravel()
    node = np.repeat(trees.roots, n)
    cell = np.tile(np.arange(n) * (d + 1), trees.n_trees)  # pair's row offset
    while True:  # every pair steps
        step = right[node] - (cells[cell + feature[node]] <= trees.threshold[node])
        moved = step != node
        node = step
        if 2 * np.count_nonzero(moved) < node.size:
            break
    moving = np.flatnonzero(moved)  # only the pairs that may still move
    while moving.size:
        at = node[moving]
        step = right[at] - (cells[cell[moving] + feature[at]] <= trees.threshold[at])
        node[moving] = step
        moving = moving[step != at]
    return trees.value[node].reshape(trees.n_trees, n)
