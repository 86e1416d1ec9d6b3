"""Decision-tree core shared by CART, the forests and the boosting stages.

Split search is vectorized over all candidate features of a node at once:
values are column-sorted, class/target sums are accumulated with prefix
sums, and every midpoint between consecutive distinct values is scored in
one pass. ``random_threshold`` mode draws a single uniform cut per feature
instead (extremely-randomized-trees style).

Tie-breaking is fully deterministic: among equal impurity decreases the
split with the lowest feature index wins, then the lowest threshold.

Trees are stored flat, as in scikit-learn's ``Tree``: a ``TreeBlock`` holds
the nodes of all trees of a model in parallel arrays, and ``tree_apply``
scores every (tree, row) pair of a block at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CLASS_CRITERIA = ("gini", "entropy")
CRITERIA = CLASS_CRITERIA + ("variance",)

_FIELDS = ("feature", "threshold", "left", "right", "value", "roots")  # TreeBlock's, in order
_INDEX_FIELDS = ("feature", "left", "right", "roots")


@dataclass(frozen=True, eq=False)
class TreeBlock:
    """The nodes of one or more trees as parallel arrays.

    Node i is a leaf when ``left[i] == -1`` and then predicts ``value[i]``
    (class-1 probability, mean residual or boosting leaf weight). Otherwise
    rows with ``x[feature[i]] <= threshold[i]`` continue at ``left[i]`` and
    the others at ``right[i]``. Every child is numbered after its parent,
    so each walk from a root ends. Tree t starts at node ``roots[t]``.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
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
        offsets = np.cumsum([0] + [b.n_nodes for b in blocks[:-1]])

        def joined(name):
            parts = [getattr(b, name) for b in blocks]
            if name in ("left", "right", "roots"):
                parts = [np.where(p == -1, p, p + off) for p, off in zip(parts, offsets)]
            return np.concatenate(parts)

        return cls(*(joined(name) for name in _FIELDS))

    def to_dict(self) -> dict:
        return {name: getattr(self, name).tolist() for name in _FIELDS}

    @classmethod
    def from_dict(cls, d: dict, n_features: int) -> "TreeBlock":
        """Inverse of to_dict. Raises ValueError for any block a traversal
        could not score: arrays of unequal length or of the wrong type,
        children that are out of range or not numbered after their parent,
        split features outside [0, n_features), non-finite thresholds or
        values, or roots outside the node range."""
        arrays = {name: _flat_array(name, d[name], name in _INDEX_FIELDS) for name in _FIELDS}
        n = len(arrays["feature"])
        if any(len(arrays[name]) != n for name in _FIELDS[:-1]):
            raise ValueError("tree arrays differ in length")
        left, right = arrays["left"], arrays["right"]
        inner = left != -1
        if not np.array_equal(inner, right != -1):
            raise ValueError("a tree node has a single child")
        parent = np.flatnonzero(inner)
        for child in (left[inner], right[inner]):
            if ((child <= parent) | (child >= n)).any():
                raise ValueError("a child node is out of range or not after its parent")
        feature = arrays["feature"][inner]
        if ((feature < 0) | (feature >= n_features)).any():
            raise ValueError("a split feature is out of range")
        if not (np.isfinite(arrays["threshold"]).all() and np.isfinite(arrays["value"]).all()):
            raise ValueError("a tree threshold or value is not finite")
        roots = arrays["roots"]
        if len(roots) == 0 or ((roots < 0) | (roots >= n)).any():
            raise ValueError("a tree root is missing or out of range")
        return cls(**arrays)


def _flat_array(name, values, integer: bool) -> np.ndarray:
    a = np.asarray(values)
    if a.ndim != 1 or (a.size and a.dtype.kind not in ("i" if integer else "if")):
        kind = "integers" if integer else "numbers"
        raise ValueError(f"tree field {name!r} must be a list of {kind}")
    return a.astype(np.intp if integer else np.float64)


class TreeBuilder:
    """One tree being grown, as [feature, threshold, left, right, value]
    node records. Node 0 is the root, and a split appends its two children,
    so each child is numbered after its parent."""

    def __init__(self):
        self.nodes = [[-1, 0.0, -1, -1, 0.0]]

    def split(self, node: int, feature: int, threshold: float) -> tuple[int, int]:
        left = len(self.nodes)
        self.nodes[node][:4] = feature, threshold, left, left + 1
        self.nodes += [[-1, 0.0, -1, -1, 0.0], [-1, 0.0, -1, -1, 0.0]]
        return left, left + 1

    def leaf(self, node: int, value: float) -> None:
        self.nodes[node][4] = value

    def block(self) -> TreeBlock:
        feature, threshold, left, right, value = zip(*self.nodes)
        return TreeBlock(np.array(feature, dtype=np.intp), np.array(threshold),
                         np.array(left, dtype=np.intp), np.array(right, dtype=np.intp),
                         np.array(value), np.zeros(1, dtype=np.intp))


@dataclass(frozen=True)
class GrowParams:
    criterion: str = "gini"
    max_depth: int | None = None
    min_samples_split: int = 2
    feature_subsample: int | None = None  # per-node candidate count; None = all
    candidate_mode: str = "exhaustive"  # or "random_threshold"
    target_kind: str = "class"  # or "regression_residual"


def _xlog2x(p: np.ndarray) -> np.ndarray:
    out = np.zeros_like(p)
    np.log2(p, out=out, where=p > 0)
    return p * out


def _class_impurity(w1, wt, criterion):
    p = np.clip(w1 / wt, 0.0, 1.0)
    if criterion == "gini":
        return 2.0 * p * (1.0 - p)
    return -(_xlog2x(p) + _xlog2x(1.0 - p))


def best_split(X, y, w, features, criterion="gini", candidate_mode="exhaustive", rng=None):
    """Best (feature, threshold, impurity_decrease) for one node, or None.

    Exhaustive mode scans midpoints between consecutive sorted distinct
    values of each candidate feature; random_threshold mode draws one
    uniform threshold per candidate feature between its min and max.
    Returns None when no candidate split strictly reduces impurity.
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
    V = X[:, feats]
    a, b = _target_sums(y, w, criterion)
    if candidate_mode == "exhaustive":
        found = _split_exhaustive(V, feats, a, b, w, criterion)
    elif candidate_mode == "random_threshold":
        if rng is None:
            raise ValueError("random_threshold mode needs an rng")
        found = _split_random(V, feats, a, b, w, criterion, rng)
    else:
        raise ValueError(f"unknown candidate mode {candidate_mode!r}")
    return None if found is None else found[:3]


def _target_sums(y, w, criterion):
    """Per-row weighted class-1 count, or for variance the weighted target
    and its square: the sums the split search accumulates."""
    if criterion == "variance":
        return w * y, w * y * y
    return w * (y == 1.0), None


def _impurity(a, b, wt, criterion):
    # a = weighted class-1 count or weighted target sum; b = weighted sum of squares
    if criterion == "variance":
        mean = a / wt
        return np.maximum(b / wt - mean * mean, 0.0)
    return _class_impurity(a, wt, criterion)


def _split_exhaustive(V, feats, a, b, w, criterion, require_positive=True):
    order = np.argsort(V, axis=0)
    Vs = np.take_along_axis(V, order, axis=0)
    cum_w = np.cumsum(w[order], axis=0)
    cum_a = np.cumsum(a[order], axis=0)
    W = cum_w[-1, 0]
    A = cum_a[-1, 0]
    lw, la = cum_w[:-1], cum_a[:-1]
    rw, ra = W - lw, A - la
    if criterion == "variance":
        cum_b = np.cumsum(b[order], axis=0)
        B = cum_b[-1, 0]
        lb, rb = cum_b[:-1], B - cum_b[:-1]
    else:
        lb = rb = B = None

    parent = float(_impurity(np.array(A), np.array(B) if B is not None else None, np.array(W), criterion))
    child = (lw * _impurity(la, lb, lw, criterion) + rw * _impurity(ra, rb, rw, criterion)) / W
    decrease = parent - child
    decrease[Vs[1:] == Vs[:-1]] = -np.inf

    flat = np.argmax(decrease.T)  # feature-major: lowest feature, then lowest threshold
    f_local, cut = divmod(flat, decrease.shape[0])
    best = decrease[cut, f_local]
    if best == -np.inf:
        return None
    if require_positive and not best > 0.0:
        return None
    threshold = (Vs[cut, f_local] + Vs[cut + 1, f_local]) / 2.0
    return (int(feats[f_local]), float(threshold), float(best),
            float(la[cut, f_local]), float(lw[cut, f_local]))


def _split_random(V, feats, a, b, w, criterion, rng, require_positive=True):
    lo = V.min(axis=0)
    hi = V.max(axis=0)
    thr = rng.uniform(lo, hi)
    usable = hi > lo
    if not usable.any():
        return None

    left = V <= thr
    W = w.sum()
    A = a.sum()
    lw = w @ left
    la = a @ left
    rw, ra = W - lw, A - la
    if criterion == "variance":
        B = b.sum()
        lb = b @ left
        rb = B - lb
    else:
        lb = rb = B = None

    parent = float(_impurity(np.array(A), np.array(B) if B is not None else None, np.array(W), criterion))
    with np.errstate(invalid="ignore", divide="ignore"):
        child = np.where(
            (lw > 0) & (rw > 0),
            (lw * _impurity(la, lb, np.where(lw > 0, lw, 1.0), criterion)
             + rw * _impurity(ra, rb, np.where(rw > 0, rw, 1.0), criterion)) / W,
            np.inf,
        )
    decrease = np.where(usable & (lw > 0) & (rw > 0), parent - child, -np.inf)
    f_local = int(np.argmax(decrease))
    if decrease[f_local] == -np.inf:
        return None
    if require_positive and not decrease[f_local] > 0.0:
        return None
    return (int(feats[f_local]), float(thr[f_local]), float(decrease[f_local]),
            float(la[f_local]), float(lw[f_local]))


def grow_tree(X, y, params: GrowParams, rng=None, w=None) -> TreeBlock:
    """Recursively split until depth / min-samples / purity stops.

    ``regression_residual`` targets are fitted by variance reduction with
    mean-valued leaves; classification leaves hold the weighted class-1 share.
    Per-node feature subsets are drawn without replacement from ``rng``.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, d = X.shape
    if n == 0:
        raise ValueError("cannot grow a tree on zero rows")
    w = np.ones(n) if w is None else np.asarray(w, dtype=np.float64)
    regression = params.target_kind == "regression_residual"
    criterion = "variance" if regression else params.criterion
    if params.feature_subsample is not None and rng is None:
        raise ValueError("feature subsampling needs an rng")
    if params.candidate_mode == "random_threshold" and rng is None:
        raise ValueError("random_threshold mode needs an rng")

    all_feats = np.arange(d, dtype=np.intp)
    tree = TreeBuilder()
    if regression:
        w1_root = wt_root = 0.0
    else:
        wt_root = float(w.sum())
        w1_root = float(w[y == 1.0].sum())
    # Class sums ride along with each node so purity checks and leaf stats
    # need no extra passes over the rows.
    stack = [(0, np.arange(n), 0, w1_root, wt_root)]
    while stack:
        node, rows, depth, w1, wt = stack.pop()
        if regression:
            yr = y[rows]
            pure = (yr == yr[0]).all()
        else:
            pure = w1 <= 0.0 or w1 >= wt
        if (
            pure
            or (params.max_depth is not None and depth >= params.max_depth)
            or len(rows) < params.min_samples_split
        ):
            tree.leaf(node, _leaf_value(y, w, rows, w1, wt, regression))
            continue

        if params.feature_subsample is None or params.feature_subsample >= d:
            feats = all_feats
            V = X[rows]
        else:
            feats = np.sort(rng.choice(d, size=params.feature_subsample, replace=False))
            V = X[np.ix_(rows, feats)]
        wr = w[rows]
        a, b = _target_sums(y[rows], wr, criterion)
        # An impure node keeps splitting even at zero impurity decrease
        # (parity patterns need the lookahead), so only depth, node size
        # and purity stop growth.
        allow_zero = not regression
        if params.candidate_mode == "exhaustive":
            found = _split_exhaustive(V, feats, a, b, wr, criterion,
                                      require_positive=not allow_zero)
        else:
            found = _split_random(V, feats, a, b, wr, criterion, rng,
                                  require_positive=not allow_zero)
        if found is None:
            tree.leaf(node, _leaf_value(y, w, rows, w1, wt, regression))
            continue

        feature, threshold, _, left_w1, left_wt = found
        left, right = tree.split(node, feature, threshold)
        go_left = X[rows, feature] <= threshold
        # Push right first so the left child is grown first (stable rng order).
        stack.append((right, rows[~go_left], depth + 1, w1 - left_w1, wt - left_wt))
        stack.append((left, rows[go_left], depth + 1, left_w1, left_wt))
    return tree.block()


def _leaf_value(y, w, rows, w1: float, wt: float, regression: bool) -> float:
    if regression:
        wr = w[rows]
        return float((wr * y[rows]).sum() / wr.sum())
    return min(max(w1, 0.0), wt) / wt


def grow_random_tree_batched(X, y, params: GrowParams, rng) -> TreeBlock:
    """Level-wise random-threshold tree builder (classification, unweighted).

    Semantically a grow_tree with candidate_mode="random_threshold": one
    uniform threshold per candidate feature per node, the best positive
    impurity decrease wins, ties to the lowest feature index. Processing a
    whole level at once replaces per-node work with segmented reductions,
    which is what makes 500-tree forests affordable.
    """
    X = np.asarray(X, dtype=np.float64)
    y1 = (np.asarray(y, dtype=np.float64) == 1.0).astype(np.float64)
    n, d = X.shape
    k = params.feature_subsample or d
    k = min(k, d)
    criterion = params.criterion

    tree = TreeBuilder()
    rows = np.arange(n, dtype=np.intp)
    # Per active node: (node id, slice start, slice end, class-1 count)
    active = [(0, 0, n, float(y1.sum()))]
    depth = 0
    while active:
        splittable = []
        for node, lo, hi, n1 in active:
            nt = hi - lo
            if (
                n1 <= 0.0 or n1 >= nt
                or (params.max_depth is not None and depth >= params.max_depth)
                or nt < params.min_samples_split
            ):
                tree.leaf(node, min(max(n1, 0.0), float(nt)) / nt)
            else:
                splittable.append((node, lo, hi, n1))
        if not splittable:
            break

        m = len(splittable)
        starts = np.array([lo for _, lo, _, _ in splittable], dtype=np.intp)
        ends = np.array([hi for _, _, hi, _ in splittable], dtype=np.intp)
        sizes = ends - starts
        n1s = np.array([n1 for _, _, _, n1 in splittable])
        total = int(sizes.sum())

        # Gather this level's rows contiguously, tagged with node ids.
        keep = np.concatenate([rows[lo:hi] for _, lo, hi, _ in splittable]) \
            if m > 1 else rows[starts[0]:ends[0]]
        node_of = np.repeat(np.arange(m, dtype=np.intp), sizes)
        seg_starts = np.concatenate(([0], np.cumsum(sizes)[:-1])).astype(np.intp)

        if k >= d:
            feats = np.broadcast_to(np.arange(d, dtype=np.intp), (m, d))
        else:
            feats = np.sort(np.argsort(rng.random((m, d)), axis=1)[:, :k], axis=1)
        V = X[keep[:, None], feats[node_of]]
        v_lo = np.minimum.reduceat(V, seg_starts, axis=0)
        v_hi = np.maximum.reduceat(V, seg_starts, axis=0)
        thr = rng.uniform(v_lo, v_hi)
        usable = v_hi > v_lo

        left = V <= thr[node_of]
        lw = np.add.reduceat(left.astype(np.float64), seg_starts, axis=0)
        la = np.add.reduceat(left * y1[keep][:, None], seg_starts, axis=0)
        wt = sizes.astype(np.float64)[:, None]
        rw = wt - lw
        ra = n1s[:, None] - la

        parent = _class_impurity(n1s, sizes.astype(np.float64), criterion)
        ok = usable & (lw > 0) & (rw > 0)
        lw_safe = np.where(lw > 0, lw, 1.0)
        rw_safe = np.where(rw > 0, rw, 1.0)
        child = (lw * _class_impurity(la, lw_safe, criterion)
                 + rw * _class_impurity(ra, rw_safe, criterion)) / wt
        decrease = np.where(ok, parent[:, None] - child, -np.inf)

        best_local = np.argmax(decrease, axis=1)
        best_gain = decrease[np.arange(m), best_local]
        splittable_gain = best_gain > -np.inf

        go_left = left[np.arange(total), best_local[node_of]]
        # Order rows as (node, right-then-left) so a stable sort keeps left
        # children first within each segment.
        order = np.lexsort((~go_left, node_of))
        new_rows = keep[order]
        next_active = []
        cursor = 0
        for i, (node, lo, hi, n1) in enumerate(splittable):
            size = int(sizes[i])
            if not splittable_gain[i]:
                tree.leaf(node, n1 / size)
                cursor += size
                continue
            left, right = tree.split(node, int(feats[i, best_local[i]]),
                                     float(thr[i, best_local[i]]))
            n_left = int(lw[i, best_local[i]])
            a_left = float(la[i, best_local[i]])
            next_active.append((left, cursor, cursor + n_left, a_left))
            next_active.append((right, cursor + n_left, cursor + size, n1 - a_left))
            cursor += size
        rows = new_rows
        active = next_active
        depth += 1
    return tree.block()


def grow_exhaustive_tree_batched(X, y, params: GrowParams, rng, w=None) -> TreeBlock:
    """Level-wise exhaustive-midpoint tree builder (classification).

    Same node-level semantics as grow_tree in exhaustive mode: every
    midpoint between consecutive distinct sorted values of each candidate
    feature is scored, the largest weighted impurity decrease wins, ties to
    the lowest feature index then the lowest threshold. Each level is
    evaluated with segmented prefix sums over per-feature sort orders.
    """
    X = np.asarray(X, dtype=np.float64)
    y1 = (np.asarray(y, dtype=np.float64) == 1.0).astype(np.float64)
    n, d = X.shape
    w = np.ones(n) if w is None else np.asarray(w, dtype=np.float64)
    a_all = w * y1
    k = min(params.feature_subsample or d, d)
    criterion = params.criterion

    tree = TreeBuilder()
    rows = np.arange(n, dtype=np.intp)
    active = [(0, 0, n, float(a_all.sum()), float(w.sum()))]
    depth = 0
    while active:
        splittable = []
        for node, lo, hi, a1, wt in active:
            if (
                a1 <= 0.0 or a1 >= wt
                or (params.max_depth is not None and depth >= params.max_depth)
                or hi - lo < params.min_samples_split
            ):
                tree.leaf(node, min(max(a1, 0.0), wt) / wt)
            else:
                splittable.append((node, lo, hi, a1, wt))
        if not splittable:
            break

        m = len(splittable)
        sizes = np.array([hi - lo for _, lo, hi, _, _ in splittable], dtype=np.intp)
        total = int(sizes.sum())
        keep = (np.concatenate([rows[lo:hi] for _, lo, hi, _, _ in splittable])
                if m > 1 else rows[splittable[0][1]:splittable[0][2]])
        node_of = np.repeat(np.arange(m, dtype=np.intp), sizes)
        seg_starts = np.concatenate(([0], np.cumsum(sizes)[:-1])).astype(np.intp)
        seg_last = (np.cumsum(sizes) - 1).astype(np.intp)

        if k >= d:
            feats = np.broadcast_to(np.arange(d, dtype=np.intp), (m, d))
        else:
            feats = np.sort(np.argsort(rng.random((m, d)), axis=1)[:, :k], axis=1)
        V = X[keep[:, None], feats[node_of]]
        w_lvl = w[keep]
        a_lvl = a_all[keep]
        wt_node = np.array([wt for *_, wt in splittable])
        a_node = np.array([a1 for _, _, _, a1, _ in splittable])
        parent = _class_impurity(a_node, wt_node, criterion)

        best_gain = np.full(m, -np.inf)
        best_col = np.zeros(m, dtype=np.intp)
        best_thr = np.zeros(m)
        best_la = np.zeros(m)
        best_lw = np.zeros(m)
        positions = np.arange(total)
        for j in range(V.shape[1]):
            order = np.lexsort((V[:, j], node_of))
            Vs = V[order, j]
            cw = np.cumsum(w_lvl[order])
            ca = np.cumsum(a_lvl[order])
            base_w = np.concatenate(([0.0], cw[seg_last[:-1]])) if m > 1 else np.zeros(1)
            base_a = np.concatenate(([0.0], ca[seg_last[:-1]])) if m > 1 else np.zeros(1)
            lw = cw - base_w[node_of]
            la = ca - base_a[node_of]
            rw = wt_node[node_of] - lw
            ra = a_node[node_of] - la
            # A cut sits after position i when i+1 is in the same segment
            # and the sorted value strictly increases.
            valid = np.zeros(total, dtype=bool)
            valid[:-1] = (node_of[1:] == node_of[:-1]) & (Vs[1:] > Vs[:-1])
            lw_safe = np.where(lw > 0, lw, 1.0)
            rw_safe = np.where(rw > 0, rw, 1.0)
            child = (lw * _class_impurity(la, lw_safe, criterion)
                     + rw * _class_impurity(ra, rw_safe, criterion)) / wt_node[node_of]
            gain = np.where(valid, parent[node_of] - child, -np.inf)

            seg_max = np.maximum.reduceat(gain, seg_starts)
            hit = gain == seg_max[node_of]
            first = np.minimum.reduceat(np.where(hit, positions, total), seg_starts)
            improve = seg_max > best_gain  # strict: earlier columns win ties
            upd = np.nonzero(improve & (seg_max > -np.inf))[0]
            if len(upd):
                pos = first[upd]
                best_gain[upd] = seg_max[upd]
                best_col[upd] = j
                best_thr[upd] = (Vs[pos] + Vs[pos + 1]) / 2.0
                best_la[upd] = la[pos]
                best_lw[upd] = lw[pos]

        go_left = V[positions, best_col[node_of]] <= best_thr[node_of]
        order = np.lexsort((~go_left, node_of))
        new_rows = keep[order]
        next_active = []
        cursor = 0
        for i, (node, lo, hi, a1, wt) in enumerate(splittable):
            size = int(sizes[i])
            if best_gain[i] == -np.inf:
                tree.leaf(node, min(max(a1, 0.0), wt) / wt)
                cursor += size
                continue
            left, right = tree.split(node, int(feats[i, best_col[i]]), float(best_thr[i]))
            seg = slice(seg_starts[i], seg_starts[i] + size)
            n_left = int(np.count_nonzero(go_left[seg]))
            next_active.append((left, cursor, cursor + n_left,
                                float(best_la[i]), float(best_lw[i])))
            next_active.append((right, cursor + n_left, cursor + size,
                                a1 - float(best_la[i]), wt - float(best_lw[i])))
            cursor += size
        rows = new_rows
        active = next_active
        depth += 1
    return tree.block()


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
    child = np.concatenate((np.where(leaf, index, trees.right), np.where(leaf, index, trees.left)))
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
