import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tspmcts.instances import DistanceMatrix, Instance, Metric, distance_matrix, generate_uniform
from tspmcts.tours import (
    EXACT_SOLVE_MAX_N,
    canonical_order,
    exact_solve,
    make_tour,
    parse_tour,
    Tour,
    tour_length,
    two_opt,
    write_tour,
)

from conftest import brute_force_solve, circle_instance, dm_and_ranks


class TestTourLength:
    def test_square_perimeter(self, unit_square):
        dm, _ = dm_and_ranks(unit_square)
        assert tour_length(np.array([0, 1, 2, 3]), dm) == pytest.approx(4.0, abs=1e-12)

    def test_square_crossing(self, unit_square):
        dm, _ = dm_and_ranks(unit_square)
        assert tour_length(np.array([0, 2, 1, 3]), dm) == pytest.approx(2 + 2 * math.sqrt(2), abs=1e-12)

    def test_matches_naive_resummation(self):
        inst = generate_uniform(8, 5)
        dm, _ = dm_and_ranks(inst)
        rng = np.random.default_rng(1)
        order = rng.permutation(8)
        naive = sum(dm.pair(int(order[k]), int(order[(k + 1) % 8])) for k in range(8))
        assert tour_length(order, dm) == pytest.approx(naive, rel=1e-12)

    def test_rejects_non_permutations(self, unit_square):
        dm, _ = dm_and_ranks(unit_square)
        with pytest.raises(ValueError, match=r"^tour has \(3,\) entries, expected \(4,\)$"):
            tour_length(np.array([0, 1, 2]), dm)
        with pytest.raises(ValueError, match="^tour is missing cities"):
            tour_length(np.array([0, 1, 2, 2]), dm)
        with pytest.raises(ValueError, match="^tour contains out-of-range city indices$"):
            tour_length(np.array([0, 1, 2, 4]), dm)


class TestExactSolve:
    def test_square(self, unit_square):
        dm, _ = dm_and_ranks(unit_square)
        assert exact_solve(dm).length == pytest.approx(4.0, abs=1e-12)

    def test_circle_visits_in_angular_order(self):
        dm, _ = dm_and_ranks(circle_instance(5))
        tour = exact_solve(dm)
        expected = canonical_order(np.arange(5))
        assert np.array_equal(canonical_order(tour.order), expected)

    def test_matches_brute_force(self):
        for seed in range(6):
            inst = generate_uniform(9, 40 + seed)
            dm, _ = dm_and_ranks(inst)
            hk = exact_solve(dm)
            bf = brute_force_solve(dm)
            assert np.array_equal(canonical_order(hk.order), canonical_order(bf.order))
            assert hk.length == pytest.approx(bf.length, abs=1e-12)

    def test_size_cap(self):
        inst = generate_uniform(EXACT_SOLVE_MAX_N + 1, 0)
        dm, _ = dm_and_ranks(inst)
        with pytest.raises(ValueError, match=f"^exact_solve handles n <= {EXACT_SOLVE_MAX_N}, got {EXACT_SOLVE_MAX_N + 1}$"):
            exact_solve(dm)

    def test_lower_bounds_random_tours(self):
        inst = generate_uniform(10, 77)
        dm, _ = dm_and_ranks(inst)
        opt = exact_solve(dm).length
        rng = np.random.default_rng(0)
        for _ in range(25):
            assert opt <= tour_length(rng.permutation(10), dm) + 1e-12


def per_mask_exact_solve(dm: DistanceMatrix) -> Tour:
    """Held-Karp one subset at a time, in mask order: the oracle for ``exact_solve``'s layers."""
    n = dm.n
    d = dm.rows(0, n).astype(np.float64)
    m = n - 1
    full = 1 << m
    dp = np.full((full, m), np.inf)
    parent = np.full((full, m), -1, dtype=np.int8)
    for j in range(m):
        dp[1 << j, j] = d[0, j + 1]
    dsub = d[1:, 1:]
    bit_lists = [[j for j in range(m) if mask >> j & 1] for mask in range(full)]
    for mask in range(1, full):
        js = bit_lists[mask]
        if len(js) < 2:
            continue
        prevs = [mask ^ (1 << j) for j in js]
        # cand[t, i] = best path over prevs[t] ending at i, plus edge i -> js[t]
        cand = dp[prevs] + dsub[:, js].T
        dp[mask, js] = cand.min(axis=1)
        parent[mask, js] = cand.argmin(axis=1)
    closing = dp[full - 1] + d[1:, 0]
    j = int(closing.argmin())
    mask = full - 1
    path = []
    while j >= 0:
        path.append(j + 1)
        j_next = int(parent[mask, j])
        mask ^= 1 << j
        j = j_next
    return make_tour(canonical_order(np.array([0, *reversed(path)], dtype=np.int32)), dm)


#: tracemalloc peak of ``per_mask_exact_solve`` at n=18 (generate_uniform(18, 0); Python 3.11,
#: numpy 2.4): 41.03 MB, about half of it the per-mask bit lists. Measuring it here takes about 20 s;
#: the layers peak at about 30.1 MB, two thirds of it the dp table and its parents.
PER_MASK_PEAK_AT_CAP = 41_000_000


class TestLayeredHeldKarp:
    @pytest.mark.parametrize("n", range(3, 14))
    @pytest.mark.parametrize("metric", list(Metric))
    @pytest.mark.parametrize("points", ["random", "grid"])
    def test_matches_the_per_mask_loop(self, n, metric, points):
        """Same tour and the same length bits, ties included (an integer grid has many)."""
        rng = np.random.default_rng(n)
        pts = rng.random((n, 2)) * 100 if points == "random" else np.floor(rng.random((n, 2)) * 5)
        dm = distance_matrix(Instance(id="t", points=pts, metric=metric))
        layered, per_mask = exact_solve(dm), per_mask_exact_solve(dm)
        assert np.array_equal(layered.order, per_mask.order)
        assert layered.length.hex() == per_mask.length.hex()

    def test_peak_at_the_cap_is_no_higher_than_the_per_mask_loop(self):
        dm = distance_matrix(generate_uniform(EXACT_SOLVE_MAX_N, 0))
        tracemalloc.start()
        try:
            exact_solve(dm)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= PER_MASK_PEAK_AT_CAP


class TestTwoOpt:
    def test_optimal_square_unchanged(self, unit_square):
        dm, _ = dm_and_ranks(unit_square)
        start = make_tour(np.array([0, 1, 2, 3]), dm)
        result = two_opt(start, dm)
        assert np.array_equal(result.order, start.order)

    def test_uncrosses_square_in_one_pass(self, unit_square):
        dm, _ = dm_and_ranks(unit_square)
        start = make_tour(np.array([0, 2, 1, 3]), dm)
        result = two_opt(start, dm, max_passes=1)
        assert result.length == pytest.approx(4.0, abs=1e-12)

    def test_never_worse_and_bounded_by_optimum(self):
        for seed in range(5):
            inst = generate_uniform(12, 300 + seed)
            dm, _ = dm_and_ranks(inst)
            rng = np.random.default_rng(seed)
            start = make_tour(rng.permutation(12), dm)
            result = two_opt(start, dm)
            assert result.length <= start.length + 1e-12
            assert result.length >= exact_solve(dm).length - 1e-12


class TestTourFiles:
    def test_round_trip(self):
        order = np.array([3, 0, 2, 1, 4], dtype=np.int32)
        assert np.array_equal(parse_tour(write_tour(order)), order)

    def test_duplicate_index_rejected(self):
        with pytest.raises(ValueError, match="^tour is missing cities"):
            parse_tour("4\n0 1 1 3\n")

    def test_tsplib_tour_section_one_based(self):
        text = "NAME : t\nTYPE : TOUR\nDIMENSION : 4\nTOUR_SECTION\n1\n3\n2\n4\n-1\nEOF\n"
        assert np.array_equal(parse_tour(text), np.array([0, 2, 1, 3]))

    @pytest.mark.parametrize("text, message", [
        ("DIMENSION : x\nTOUR_SECTION\n1 2 3\n-1\n", "bad DIMENSION: 'x'"),
        ("DIMENSION : 3\nTOUR_SECTION\n1 x 3\n-1\n", "bad tour index: 'x'"),
        ("3\n0 x 2\n", "bad tour index: 'x'"),
        ("three\n0 1 2\n", "bad tour size: 'three'"),
    ], ids=["tsplib-dimension", "tsplib-index", "native-index", "native-size"])
    def test_non_integer_token_named(self, text, message):
        with pytest.raises(ValueError) as exc:
            parse_tour(text)
        assert str(exc.value) == message


class TestCanonicalForm:
    def test_rotation_and_reversal_collapse(self):
        order = np.array([2, 4, 0, 1, 3])
        rotated = np.roll(order, 2)
        reversed_ = order[::-1].copy()
        assert np.array_equal(canonical_order(order), canonical_order(rotated))
        assert np.array_equal(canonical_order(order), canonical_order(reversed_))


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=30),
    seed=st.integers(min_value=0, max_value=10**6),
    shift=st.integers(min_value=0, max_value=29),
)
def test_length_invariant_under_rotation_and_reversal(n, seed, shift):
    inst = generate_uniform(n, seed)
    dm, _ = dm_and_ranks(inst)
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    base = tour_length(order, dm)
    assert tour_length(np.roll(order, shift % n), dm) == pytest.approx(base, rel=1e-12)
    assert tour_length(order[::-1], dm) == pytest.approx(base, rel=1e-12)
