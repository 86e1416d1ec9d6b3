"""The stand-in generator's batched calibration against the one-move-at-a-time
loops it replaced, and the stand-in tables it produces.

The oracle below is the loop form of the count-table calibration: one
``_pearson_from_counts`` call per candidate move, and one per joint table of
a binary feature. The batched code must pick the same move at every step, so
every calibrated table is equal, and the generated CSV keeps its bytes.
"""

import hashlib

import numpy as np
import pytest

from heartstack import synthetic
from heartstack.schema import FEATURE_NAMES


def _loop_pearson_from_counts(grid, c0, c1) -> float:
    n = c0.sum() + c1.sum()
    x_sum = grid @ (c0 + c1)
    x2_sum = (grid * grid) @ (c0 + c1)
    t_sum = c1.sum()
    xt_sum = grid @ c1
    cov = xt_sum / n - (x_sum / n) * (t_sum / n)
    var_x = x2_sum / n - (x_sum / n) ** 2
    var_t = t_sum / n - (t_sum / n) ** 2
    if var_x <= 0 or var_t <= 0:
        return 0.0
    return float(cov / np.sqrt(var_x * var_t))


def _loop_greedy_refine(grid, c0, c1, target_r, core_len, tol=2e-4, max_moves=400):
    counts = [c0.copy(), c1.copy()]
    for _ in range(max_moves):
        err = abs(_loop_pearson_from_counts(grid, counts[0], counts[1]) - target_r)
        if err < tol:
            break
        best = None
        for cls in (0, 1):
            c = counts[cls]
            for i in range(core_len - 1):
                for src, dst in ((i, i + 1), (i + 1, i)):
                    if c[src] == 0:
                        continue
                    c[src] -= 1
                    c[dst] += 1
                    trial = abs(_loop_pearson_from_counts(grid, counts[0], counts[1]) - target_r)
                    c[src] += 1
                    c[dst] -= 1
                    if trial < err and (best is None or trial < best[0]):
                        best = (trial, cls, src, dst)
        if best is None:
            break
        _, cls, src, dst = best
        counts[cls][src] -= 1
        counts[cls][dst] += 1
    return counts[0], counts[1]


def _loop_binary_counts(name, n0, n1):
    n = n0 + n1
    target_r = synthetic.REFERENCE_CORRELATIONS[name]
    a_ref = synthetic.BINARY_MARGINALS[name]
    grid = np.array([0.0, 1.0])
    best = None
    for total_ones in range(int(a_ref * n) - 6, int(a_ref * n) + 7):
        if round(100 * total_ones / n) != round(100 * a_ref):
            continue
        for ones_pos in range(max(0, total_ones - n0), min(n1, total_ones) + 1):
            c1 = np.array([n1 - ones_pos, ones_pos])
            c0 = np.array([n0 - (total_ones - ones_pos), total_ones - ones_pos])
            if (c0 < 0).any():
                continue
            r = _loop_pearson_from_counts(grid, c0, c1)
            key = (abs(r - target_r), abs(total_ones / n - a_ref))
            if best is None or key < best[0]:
                best = (key, c0, c1)
    return best[1], best[2]


@pytest.fixture(scope="module")
def oracle_pools():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synthetic, "_pearson_from_counts", _loop_pearson_from_counts)
        mp.setattr(synthetic, "_greedy_refine", _loop_greedy_refine)
        mp.setattr(synthetic, "_binary_counts", _loop_binary_counts)
        return synthetic._pools.__wrapped__()


@pytest.mark.parametrize("name", FEATURE_NAMES)
def test_calibrated_tables_equal_the_loop_oracle(name, oracle_pools):
    grid, c0, c1, special = synthetic._pools()[name]
    o_grid, o_c0, o_c1, o_special = oracle_pools[name]
    assert np.array_equal(grid, o_grid)
    assert np.array_equal(c0, o_c0) and np.array_equal(c1, o_c1)
    assert special == o_special


# (grid, class-0 counts, class-1 counts, target) on which some step's upward
# and downward moves at one position tie exactly.
UP_DOWN_TIES = [
    ([0, 1, 2, 3, 4], [2, 1, 0, 0, 3], [3, 1, 3, 3, 2], 0.5),
    ([0, 1, 2], [2, 0, 3], [1, 0, 4], -0.5),
    ([0, 1, 2, 3, 4], [4, 0, 1, 0, 0], [1, 0, 0, 0, 1], 1.0),
]


def _random_small_tables(rng, count):
    for _ in range(count):
        k = int(rng.integers(3, 7))
        c0, c1 = rng.integers(0, 4, size=(2, k))
        c0[0] += 1
        c1[-1] += 1
        yield (rng.integers(0, 3, size=k).cumsum(), c0, c1,
               float(rng.choice([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0])))


def test_greedy_refine_breaks_ties_like_the_loop():
    # Small integer tables and round targets give exactly tied moves, so the
    # scan order (class, position, upward move first) decides.
    cases = UP_DOWN_TIES + list(_random_small_tables(np.random.default_rng(0), 1500))
    for grid, c0, c1, target in cases:
        grid, c0, c1 = np.asarray(grid, dtype=float), np.asarray(c0), np.asarray(c1)
        for core_len in (len(grid) - 1, len(grid)):
            got = synthetic._greedy_refine(grid, c0, c1, target, core_len, max_moves=20)
            want = _loop_greedy_refine(grid, c0, c1, target, core_len, max_moves=20)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_calibration_runs_once_per_process():
    assert synthetic._pools() is synthetic._pools()
    assert not any(a.flags.writeable for pool in synthetic._pools().values() for a in pool[:3])


# sha256 of dataset_to_csv(generate_dataset(seed)), recorded before the
# calibration was batched.
DATASET_SHA256 = {
    3: "fed944969b67e59b7e63943f986e8c87818a77122b9d8cfbd2b785d54e2b27b6",
    77: "fe8cf85bec5624a945bc24db4f5e13f2b90a0d80e60bc95b30356c37e6f80116",
    78: "2e5f890e6ec4649941ff7138d333c0ed3c5eda54cb6e62f3164c54229244e7d3",
    79: "97831c4db9a24864ffbed65db93532426e748aab80f99ea4558f49bfecd1b58d",
    80: "bbbcef31e2d18fd19b580daaae935b7613b201c91f1d9daef8dd63ba52d9e548",
    81: "abc5315761b5cfafc0089c9b089fce9400267bac9678b85f34256a4ddff369c6",
}


@pytest.mark.parametrize("seed", sorted(DATASET_SHA256))
def test_dataset_bytes_are_pinned(seed):
    csv = synthetic.dataset_to_csv(synthetic.generate_dataset(seed))
    assert hashlib.sha256(csv.encode()).hexdigest() == DATASET_SHA256[seed]
