import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tspmcts.instances import generate_uniform
from tspmcts.tours import (
    EXACT_SOLVE_MAX_N,
    InvalidTourError,
    SizeLimitError,
    canonical_order,
    exact_solve,
    make_tour,
    parse_tour,
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
        naive = sum(dm[int(order[k]), int(order[(k + 1) % 8])] for k in range(8))
        assert tour_length(order, dm) == pytest.approx(naive, rel=1e-12)

    def test_rejects_non_permutations(self, unit_square):
        dm, _ = dm_and_ranks(unit_square)
        with pytest.raises(InvalidTourError):
            tour_length(np.array([0, 1, 2]), dm)
        with pytest.raises(InvalidTourError):
            tour_length(np.array([0, 1, 2, 2]), dm)
        with pytest.raises(InvalidTourError):
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
        with pytest.raises(SizeLimitError):
            exact_solve(dm)

    def test_lower_bounds_random_tours(self):
        inst = generate_uniform(10, 77)
        dm, _ = dm_and_ranks(inst)
        opt = exact_solve(dm).length
        rng = np.random.default_rng(0)
        for _ in range(25):
            assert opt <= tour_length(rng.permutation(10), dm) + 1e-12


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
        with pytest.raises(InvalidTourError):
            parse_tour("4\n0 1 1 3\n")

    def test_tsplib_tour_section_one_based(self):
        text = "NAME : t\nTYPE : TOUR\nDIMENSION : 4\nTOUR_SECTION\n1\n3\n2\n4\n-1\nEOF\n"
        assert np.array_equal(parse_tour(text), np.array([0, 2, 1, 3]))


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
