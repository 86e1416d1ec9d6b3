"""Deterministic synthetic stand-in for the combined heart-disease table.

The real 1190-row CSV is a user-supplied input. For development, CI and the
acceptance suite this module generates a stand-in that reproduces the
table's published shape: row count, class balance, the 76/24 male/female
split, the feature-to-target correlation profile, a handful of rows that
the default cleaning strategy removes (one zero blood pressure, fourteen
IQR outliers), and a difficulty profile on which the tree ensembles lead,
the linear models trail and k-NN comes last.

It is not patient data. Class-conditional value pools are built as count
tables over discrete grids and calibrated by a blend search plus greedy
one-row moves until each feature's Pearson correlation with the target
matches the reference profile. The calibration reads only module
constants, never the seed, so it runs once per process and every data seed
deals from the same pools. Values are dealt to rows through latent "risk
subtype" scores, which couples features within a class and gives the
classes locally clustered, non-Gaussian structure.
"""

from __future__ import annotations

import functools

import numpy as np

from .dataset import Dataset, Provenance
from .reporting import format_csv
from .rng import stream
from .schema import FEATURE_NAMES, TARGET_SPEC

DEFAULT_DATA_SEED = 77
N_ROWS = 1190
N_POSITIVE = 629  # matches the public table's class balance

# Pearson correlation of each feature with the target in the public
# combined table; the generator calibrates to these.
REFERENCE_CORRELATIONS = {
    "st_slope": 0.505608,
    "exercise_induced_angina": 0.481467,
    "chest_pain_type": 0.460127,
    "st_depression": 0.398385,
    "sex": 0.311267,
    "age": 0.262029,
    "fasting_blood_sugar": 0.216695,
    "resting_blood_pressure": 0.121415,
    "rest_ecg": 0.073059,
    "cholesterol": -0.198366,
    "max_heart_rate_achieved": -0.413278,
}

# Overall prevalence of code 1 for the binary nominal features.
BINARY_MARGINALS = {"sex": 0.7605, "fasting_blood_sugar": 0.213,
                    "exercise_induced_angina": 0.387}

# (grid, class-0 shape, class-1 shape); shapes are blended and quantized
# into per-class count tables during calibration.
NOMINAL_SHAPES = {
    "chest_pain_type": (
        np.array([1, 2, 3, 4]),
        np.array([0.09, 0.32, 0.34, 0.25]),
        np.array([0.015, 0.04, 0.095, 0.85]),
    ),
    "rest_ecg": (
        np.array([0, 1, 2]),
        np.array([0.64, 0.185, 0.175]),
        np.array([0.525, 0.27, 0.205]),
    ),
    "st_slope": (
        np.array([0, 1, 2, 3]),
        np.array([0.003, 0.76, 0.21, 0.027]),
        np.array([0.0016, 0.135, 0.755, 0.1084]),
    ),
}

# Numeric grids: (lo, hi, step). Cores stay safely inside the IQR fences;
# the designated outliers below are the only values beyond them.
NUMERIC_GRIDS = {
    "age": (29, 77, 1),
    "resting_blood_pressure": (97, 171, 1),
    "cholesterol": (108, 385, 1),
    "max_heart_rate_achieved": (90, 190, 1),
    "st_depression": (-1.6, 3.4, 0.1),
}

# (mean, sd, weight) components per class.
NUMERIC_SHAPES = {
    "age": {
        0: ((50.8, 9.2, 1.0),),
        1: ((56.2, 8.8, 1.0),),
    },
    "resting_blood_pressure": {
        0: ((128.5, 15.5, 1.0),),
        1: ((133.0, 17.0, 1.0),),
    },
    "cholesterol": {
        0: ((241.0, 44.0, 1.0),),
        1: ((164.0, 28.0, 0.45), (252.0, 44.0, 0.55)),
    },
    "max_heart_rate_achieved": {
        0: ((151.5, 19.0, 1.0),),
        1: ((117.5, 15.0, 0.44), (141.0, 18.0, 0.56)),
    },
    "st_depression": {
        0: ((0.0, 0.52, 0.662), (1.05, 0.62, 0.338)),
        1: ((0.0, 0.55, 0.332), (1.55, 0.95, 0.668)),
    },
}

# Rows removed by the default cleaning: one impossible blood pressure plus
# fourteen IQR outliers, each carried by a distinct row.
DOMAIN_INVALID = [("resting_blood_pressure", 1, 0.0)]
IQR_OUTLIERS = [
    ("resting_blood_pressure", 0, 192.0),
    ("resting_blood_pressure", 1, 196.0),
    ("resting_blood_pressure", 1, 200.0),
    ("resting_blood_pressure", 1, 210.0),
    ("cholesterol", 0, 512.0),
    ("cholesterol", 0, 529.0),
    ("cholesterol", 1, 546.0),
    ("cholesterol", 1, 564.0),
    ("cholesterol", 1, 603.0),
    ("max_heart_rate_achieved", 1, 56.0),
    ("max_heart_rate_achieved", 1, 63.0),
    ("st_depression", 1, 4.6),
    ("st_depression", 1, 5.3),
    ("st_depression", 1, 6.2),
]

# Within-class allocation. Features are dealt to rows in ASSIGN_ORDER by a
# per-class score: risk * subtype_flag + sum(cross[other] * z(other)) +
# noise. Class 1 couples strongly to its latent subtype, splitting into a
# classic-severe profile (low heart rate, high ST depression, flat/down
# slope) and an atypical one with compensating values; class 0 anti-couples
# its risky-looking tails across features, so that no healthy row looks
# risky on several features at once.
ASSIGN_ORDER = (
    "age",
    "resting_blood_pressure",
    "cholesterol",
    "st_depression",
    "max_heart_rate_achieved",
    "exercise_induced_angina",
    "chest_pain_type",
    "rest_ecg",
    "fasting_blood_sugar",
    "sex",
    "st_slope",
)

# "exc" pushes the small exception pockets of each class to the opposite
# class's profile (the tails of its own class pools); each pocket variant
# keeps a different multi-feature saving key decisively typical of the true
# class (EXC_KEYS). "hard" marks a genuinely ambiguous overlap zone between
# the class profiles. Only deep, many-tree models resolve the pockets.
COUPLINGS: dict[str, dict] = {
    "age": {"risk": (0.1, 0.8), "noise": (1.0, 1.0), "cross": {}, "nuis": 0.5,
            "exc": (0.0, 0.0), "hard": (0.4, -0.4)},
    "resting_blood_pressure": {"risk": (0.0, 0.3), "noise": (1.0, 1.0),
                               "cross": {"age": (0.3, 0.3)}, "nuis": 0.8,
                               "exc": (0.0, 0.0), "hard": (0.0, 0.0)},
    "cholesterol": {"risk": (0.0, -2.4), "noise": (1.2, 1.2), "cross": {}, "nuis": 0.4,
                    "exc": (0.0, 0.0), "hard": (0.0, -0.8)},
    "st_depression": {"risk": (0.0, 3.2), "noise": (1.3, 1.3),
                      "cross": {"age": (0.1, 0.2)},
                      "exc": (8.0, -8.0), "hard": (2.2, -2.2)},
    "max_heart_rate_achieved": {"risk": (0.0, -2.4), "noise": (1.3, 1.3),
                                "cross": {"age": (-0.5, -0.6),
                                          "st_depression": (0.5, 0.0)},
                                "exc": (-8.0, 8.0), "hard": (-2.2, 2.2)},
    "exercise_induced_angina": {"risk": (0.0, 2.8), "noise": (1.3, 1.3),
                                "cross": {"st_depression": (-0.7, 0.1),
                                          "max_heart_rate_achieved": (0.5, 0.0)},
                                "exc": (8.0, -8.0), "hard": (2.2, -2.2)},
    "chest_pain_type": {"risk": (0.0, 0.7), "noise": (1.2, 1.2), "nuis": 0.3,
                        "cross": {"st_depression": (-0.6, 0.0),
                                  "exercise_induced_angina": (-0.6, 0.0)},
                        "exc": (8.0, -8.0), "hard": (1.6, -1.6)},
    "rest_ecg": {"risk": (0.1, 0.5), "noise": (1.0, 1.0), "cross": {}, "nuis": 0.8,
                 "exc": (0.0, 0.0), "hard": (0.0, 0.0)},
    "fasting_blood_sugar": {"risk": (0.1, 0.5), "noise": (1.0, 1.0),
                            "cross": {"age": (0.3, 0.3)}, "nuis": 0.8,
                            "exc": (0.0, 0.0), "hard": (0.0, 0.0)},
    "sex": {"risk": (0.0, 0.2), "noise": (1.0, 1.0), "cross": {}, "nuis": 0.5,
            "exc": (0.0, 0.0), "hard": (0.0, 0.0)},
    "st_slope": {"risk": (0.0, 3.2), "noise": (1.3, 1.3),
                 "cross": {"st_depression": (-0.8, 0.2),
                           "exercise_induced_angina": (-0.8, 0.2),
                           "chest_pain_type": (-0.6, 0.0)},
                 "exc": (8.0, -8.0), "hard": (2.2, -2.2)},
}

# One saving-key set per exception pocket variant: score offsets for
# class-0 exceptions; class-1 exceptions use the negated offsets.
EXC_KEYS = (
    {"resting_blood_pressure": -6.5, "age": -6.5},
    {"cholesterol": 6.5, "rest_ecg": 6.5},
    {"fasting_blood_sugar": 6.5, "sex": -6.5},
    {"age": 6.5, "cholesterol": -6.5},
    {"resting_blood_pressure": 6.5, "rest_ecg": -6.5},
    {"sex": 6.5, "fasting_blood_sugar": -6.5},
)

# Fractions of each class: risky latent subtype, exception pockets, and the
# ambiguous hard-overlap zone.
SUBTYPE_FRACTION = {0: 0.30, 1: 0.47}
EXCEPTION_FRACTION = {0: 0.07, 1: 0.07}
HARD_FRACTION = {0: 0.10, 1: 0.10}
# Flip rows take the opposite-typical tail of their own class pool on every
# feature at once (signed by the feature's risk direction): generative label
# noise that lands each of them as an isolated intruder inside the other
# class's dense clusters. Irreducible for every model, and specifically
# ruinous for small-k neighbourhood votes, which makes k=9 the sweet spot.
FLIP_FRACTION = {0: 0.05, 1: 0.05}
FLIP_PUSH = 7.0
# Push strength per feature: full on the strong pattern features, mild on
# the rest (their pools barely differ between classes anyway).
FLIP_STRENGTH = {
    "st_slope": 1.0, "exercise_induced_angina": 1.0, "chest_pain_type": 1.0,
    "st_depression": 1.0, "max_heart_rate_achieved": 1.0,
    "cholesterol": 0.35, "age": 0.35, "sex": 0.35, "fasting_blood_sugar": 0.35,
    "rest_ecg": 0.35, "resting_blood_pressure": 0.35,
}


def _quantize(p: np.ndarray, n: int) -> np.ndarray:
    """Largest-remainder rounding of n*p to integers summing to n."""
    exact = p * n
    counts = np.floor(exact).astype(int)
    remainder = exact - counts
    short = n - counts.sum()
    counts[np.lexsort((np.arange(len(p)), -remainder))[:short]] += 1
    return counts


def _pearson(n, x_sum, x2_sum, t_sum, xt_sum):
    """Pearson correlation of value and target from count-table sums,
    elementwise over arrays of sums; 0 where a variance is not positive.
    np.square keeps scalars and arrays bit-equal (a scalar's ** 2 is pow)."""
    cov = xt_sum / n - (x_sum / n) * (t_sum / n)
    var_x = x2_sum / n - np.square(x_sum / n)
    var_t = t_sum / n - np.square(t_sum / n)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = cov / np.sqrt(var_x * var_t)
    return np.where((var_x > 0) & (var_t > 0), r, 0.0)


def _pearson_from_counts(grid, c0, c1) -> float:
    total = c0 + c1
    return float(_pearson(total.sum(), grid @ total, (grid * grid) @ total,
                          c1.sum(), grid @ c1))


def _bisect_theta(r_of_theta, target_r) -> float:
    """Find the blend weight whose correlation matches the target; r is
    monotone in theta in either direction."""
    lo, hi = 0.0, 1.0
    sign = 1.0 if r_of_theta(1.0) >= r_of_theta(0.0) else -1.0
    while sign * (r_of_theta(hi) - target_r) < 0 and hi < 4.0:
        hi += 0.25
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if sign * (r_of_theta(mid) - target_r) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _blend_counts(grid, shape0, shape1, n0, n1, target_r, special=()):
    """Blend class-1 toward class-0 until the quantized correlation matches,
    then fix the last milli-units with greedy single-row moves.

    The pinned ``special`` (class, value) rows count toward the correlation,
    on the grid extended by their values, but are never moved.
    """
    core_len = len(grid)
    ext_grid = np.concatenate([grid, [v for _, v in special]])
    pinned = [np.array([int(c == cls) for c, _ in special], dtype=int) for cls in (0, 1)]

    def counts_at(theta):
        p1 = np.clip((1 - theta) * shape0 + theta * shape1, 0.0, None)
        return (np.concatenate([_quantize(shape0 / shape0.sum(), n0), pinned[0]]),
                np.concatenate([_quantize(p1 / p1.sum(), n1), pinned[1]]))

    theta = _bisect_theta(lambda t: _pearson_from_counts(ext_grid, *counts_at(t)), target_r)
    c0, c1 = _greedy_refine(ext_grid, *counts_at(theta), target_r, core_len)
    return c0[:core_len], c1[:core_len]


def _greedy_refine(grid, c0, c1, target_r, core_len, tol=2e-4, max_moves=400):
    """Move one row at a time between adjacent values among the first
    ``core_len`` of the grid (within a class) while it shrinks the
    correlation error. Each step scores every move at once from one-row
    deltas of the sums and takes the first best in scan order: class, then
    position, then the upward move first."""
    counts = np.stack([c0, c1])
    i = np.tile(np.repeat(np.arange(core_len - 1), 2), 2)
    down = np.tile([0, 1], 2 * (core_len - 1))
    cls = np.repeat([0, 1], 2 * (core_len - 1))
    src, dst = i + down, i + 1 - down
    sq = grid * grid
    dx, dx2 = grid[dst] - grid[src], sq[dst] - sq[src]
    n, t_sum = counts.sum(), counts[1].sum()
    for _ in range(max_moves):
        total = counts.sum(axis=0)
        x_sum, x2_sum, xt_sum = grid @ total, sq @ total, grid @ counts[1]
        err = abs(_pearson(n, x_sum, x2_sum, t_sum, xt_sum) - target_r)
        if err < tol:
            break
        trial = np.abs(_pearson(n, x_sum + dx, x2_sum + dx2, t_sum,
                                xt_sum + dx * cls) - target_r)
        trial[(counts[cls, src] == 0) | (trial >= err)] = np.inf
        best = int(np.argmin(trial))
        if trial[best] == np.inf:
            break
        counts[cls[best], src[best]] -= 1
        counts[cls[best], dst[best]] += 1
    return counts[0], counts[1]


def _binary_counts(name: str, n0: int, n1: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact search over integer joint tables for a binary feature: the
    correlation error first, the marginal's error second."""
    n = n0 + n1
    target_r = REFERENCE_CORRELATIONS[name]
    a_ref = BINARY_MARGINALS[name]
    best = None
    for total_ones in range(int(a_ref * n) - 6, int(a_ref * n) + 7):
        # Keep the displayed percentage of the marginal intact.
        if round(100 * total_ones / n) != round(100 * a_ref):
            continue
        ones_pos = np.arange(max(0, total_ones - n0), min(n1, total_ones) + 1)
        r = _pearson(n, total_ones, total_ones, n1, ones_pos)
        j = int(np.argmin(np.abs(r - target_r)))
        key = (abs(r[j] - target_r), abs(total_ones / n - a_ref))
        if best is None or key < best[0]:
            pos, neg = ones_pos[j], total_ones - ones_pos[j]
            best = (key, np.array([n0 - neg, neg]), np.array([n1 - pos, pos]))
    return best[1], best[2]


def _mixture_pmf(grid: np.ndarray, components) -> np.ndarray:
    pmf = np.zeros(len(grid), dtype=np.float64)
    for mean, sd, weight in components:
        pmf += weight * np.exp(-0.5 * ((grid - mean) / sd) ** 2)
    return pmf / pmf.sum()


def _numeric_counts(name: str, n0: int, n1: int):
    lo, hi, step = NUMERIC_GRIDS[name]
    k = int(round((hi - lo) / step)) + 1
    grid = lo + step * np.arange(k)
    shape0, shape1 = (_mixture_pmf(grid, NUMERIC_SHAPES[name][c]) for c in (0, 1))

    # Reserve the designated special rows; the core pools exclude them but
    # the correlation calibration accounts for their contribution.
    special = [(cls, value) for feat, cls, value in DOMAIN_INVALID + IQR_OUTLIERS
               if feat == name]
    n_special = [sum(cls == c for cls, _ in special) for c in (0, 1)]
    return (grid, *_blend_counts(grid, shape0, shape1, n0 - n_special[0], n1 - n_special[1],
                                 REFERENCE_CORRELATIONS[name], special), special)


@functools.cache
def _pools() -> dict[str, tuple]:
    """(grid, class-0 counts, class-1 counts, special rows) per feature,
    calibrated once per process."""
    n1, n0 = N_POSITIVE, N_ROWS - N_POSITIVE
    pools = {}
    for name in FEATURE_NAMES:
        if name in NUMERIC_GRIDS:
            pools[name] = _numeric_counts(name, n0, n1)
        elif name in BINARY_MARGINALS:
            pools[name] = (np.array([0.0, 1.0]), *_binary_counts(name, n0, n1), [])
        else:
            grid, shape0, shape1 = NOMINAL_SHAPES[name]
            grid = grid.astype(float)
            pools[name] = (grid, *_blend_counts(grid, shape0, shape1, n0, n1,
                                                REFERENCE_CORRELATIONS[name]), [])
    for pool in pools.values():  # shared by every later call in the process
        for a in pool[:3]:
            a.flags.writeable = False
    return pools


_CACHE: dict[int, Dataset] = {}


def generate_dataset(seed: int = DEFAULT_DATA_SEED) -> Dataset:
    """Build the 1190-row stand-in table; deterministic per seed."""
    if seed not in _CACHE:
        _CACHE[seed] = _generate(seed)
    return _CACHE[seed]


def _generate(seed: int) -> Dataset:
    y = np.zeros(N_ROWS, dtype=np.int64)
    y[stream(seed, "target").permutation(N_ROWS)[:N_POSITIVE]] = 1
    rows_by_class = {c: np.nonzero(y == c)[0] for c in (0, 1)}

    # Latent flags drive within-class couplings: the risky subtype, the
    # exception pockets (with a key variant each) and the hard-overlap zone.
    subtype, exception, hard, flip = np.zeros((4, N_ROWS))
    exc_variant = np.full(N_ROWS, -1)
    # Per-row intensities keep pocket and overlap-zone rows from stacking
    # into small self-coherent clusters that tiny neighbourhoods could read.
    hard_intensity = stream(seed, "hard-intensity").uniform(0.2, 2.2, size=N_ROWS)
    key_magnitude = stream(seed, "key-magnitude").uniform(0.25, 1.6, size=N_ROWS)
    for c in (0, 1):
        rows = rows_by_class[c]
        e = int(round(EXCEPTION_FRACTION[c] * len(rows)))
        h = int(round(HARD_FRACTION[c] * len(rows)))
        k = int(round(SUBTYPE_FRACTION[c] * len(rows)))
        order = stream(seed, "subtype", c).permutation(len(rows))
        s = int(round(FLIP_FRACTION[c] * len(rows)))
        exc_rows = rows[order[:e]]
        exception[exc_rows] = 1.0
        exc_variant[exc_rows] = np.arange(e) % len(EXC_KEYS)
        hard[rows[order[e: e + h]]] = 1.0
        flip[rows[order[e + h: e + h + s]]] = 1.0
        subtype[rows[order[e + h + s: e + h + s + k]]] = 1.0

    # Class-independent nuisance factor: the weak features load on it, which
    # correlates them with each other inside both classes (site-effect style)
    # without touching any feature-target correlation.
    nuisance = stream(seed, "nuisance").normal(size=N_ROWS)

    X = np.zeros((N_ROWS, len(FEATURE_NAMES)), dtype=np.float64)
    col = {name: i for i, name in enumerate(FEATURE_NAMES)}
    assigned: set[str] = set()

    def zscore(name: str) -> np.ndarray:
        v = X[:, col[name]]
        sd = v.std()
        return (v - v.mean()) / (sd if sd > 0 else 1.0)

    def assign(name: str, grid, counts_by_class, special):
        spec = COUPLINGS[name]
        values = np.zeros(N_ROWS)
        reserved = _reserve_special_rows(name, special, rows_by_class, seed)
        for c in (0, 1):
            rows = rows_by_class[c]
            held = reserved.get(c, {})
            open_rows = np.array([r for r in rows if r not in held], dtype=np.intp)
            pool = np.sort(np.repeat(grid, counts_by_class[c]))
            noise = stream(seed, "couple", name, c).normal(size=len(open_rows))
            flipped = flip[open_rows]
            own = 1.0 - flipped
            # Flip rows rank toward the risky tail of class-0 pools and the
            # benign tail of class-1 pools.
            risky_sign = 1.0 if REFERENCE_CORRELATIONS.get(name, 0.0) >= 0 else -1.0
            direction = risky_sign if c == 0 else -risky_sign
            push = FLIP_PUSH * FLIP_STRENGTH[name] * direction
            score = (spec["risk"][c] * subtype[open_rows] * own
                     + spec["exc"][c] * exception[open_rows]
                     + spec["hard"][c] * hard[open_rows] * hard_intensity[open_rows] * own
                     + spec.get("nuis", 0.0) * nuisance[open_rows]
                     + push * flipped
                     + spec["noise"][c] * noise * (1.0 - 0.2 * flipped))
            key_sign = -1.0 if c == 1 else 1.0
            for variant, keys in enumerate(EXC_KEYS):
                if name in keys:
                    mask = exc_variant[open_rows] == variant
                    offset = key_sign * keys[name] * key_magnitude[open_rows]
                    score = score + np.where(mask, offset, 0.0)
            for other, weights in spec["cross"].items():
                if other in assigned and weights[c] != 0.0:
                    score = score + weights[c] * zscore(other)[open_rows]
            ranked = open_rows[np.argsort(score, kind="stable")]
            values[ranked] = pool
            for row, value in held.items():
                values[row] = value
        X[:, col[name]] = values
        assigned.add(name)

    pools = _pools()
    for name in ASSIGN_ORDER:
        grid, c0, c1, special = pools[name]
        assign(name, grid, {0: c0, 1: c1}, special)

    # Round the st_depression grid arithmetic to one decimal.
    sd_col = col["st_depression"]
    X[:, sd_col] = np.round(X[:, sd_col], 1)

    return Dataset(X, y, Provenance(source=f"synthetic(seed={seed})"))


def _reserve_special_rows(name, special, rows_by_class, seed):
    """Pick one distinct carrier row per designated special value, spread
    deterministically so no row carries two special values."""
    reserved: dict[int, dict[int, float]] = {}
    # Global ordering gives every special value a unique slot in its class.
    slot_in_class: dict[int, int] = {0: 0, 1: 0}
    for feat, cls, value in DOMAIN_INVALID + IQR_OUTLIERS:
        rows = rows_by_class[cls]
        slot = slot_in_class[cls]
        slot_in_class[cls] += 1
        row = int(rows[stream(seed, "special", cls).permutation(len(rows))[slot]])
        if feat == name:
            reserved.setdefault(cls, {})[row] = value
    return reserved


def dataset_to_csv(ds: Dataset) -> str:
    header = list(FEATURE_NAMES) + [TARGET_SPEC.name]
    rows = [[f"{v:.1f}" if name == "st_depression" else str(int(round(v)))
             for name, v in zip(FEATURE_NAMES, x)] + [str(int(t))]
            for x, t in zip(ds.X, ds.y)]
    return format_csv(header, rows)


def write_dataset_csv(path, seed: int = DEFAULT_DATA_SEED) -> Dataset:
    ds = generate_dataset(seed)
    with open(path, "w", encoding="utf8") as handle:
        handle.write(dataset_to_csv(ds))
    return ds
