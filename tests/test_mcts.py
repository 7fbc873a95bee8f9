import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tspmcts.heatmaps import BUILTIN_PRIORS, prior_to_heatmap, zero_heatmap
from tspmcts.evalkit import RANK_TABLE_WIDTH, prepare, run_benchmark
from tspmcts.instances import BLOCK_ELEMS, Instance, Metric, distance_matrix, generate_uniform, nearest_neighbor_ranks
from tspmcts.mcts import (
    IMPROVE_REL,
    Budget,
    MctsParams,
    MctsState,
    Move,
    W_FLOOR,
    _omega,
    _sample_chain,
    _slots_of,
    _target_picker,
    accept_or_restart,
    generate_kopt_move,
    init_state,
    potential,
    sample_initial_tour,
    solve,
    visits,
    weight,
    weight_update,
)
from tspmcts.tours import Tour, exact_solve, make_tour, tour_length

from conftest import bump_access, dm_and_ranks, heatmap_from_rows, set_weight, union_neighbors


def build_state(inst, params=None, hm=None, seed=0):
    dm, ranks = dm_and_ranks(inst)
    params = params or MctsParams()
    hm = hm if hm is not None else zero_heatmap(inst.n)
    return dm, ranks, init_state(inst, dm, ranks, hm, params, seed)


def union_edges(state):
    """Every candidate-union edge once, as (i, j) with i < j."""
    return [(i, j) for i in range(state.n) for j in union_neighbors(state, i).tolist() if i < j]


def randomize_weights_and_visits(state, rng, weight_values=None, max_visits=50):
    """Symmetric random W and Q on every union edge, through the mutators."""
    for i, j in union_edges(state):
        w = rng.random() if weight_values is None else float(rng.choice(weight_values))
        set_weight(state, i, j, w)
        for _ in range(int(rng.integers(0, max_visits))):
            bump_access(state, i, j)


class TestInitState:
    def test_distance_fallback_candidates(self):
        inst = generate_uniform(20, 0)
        params = MctsParams(use_heatmap=False, max_candidate_num=5)
        dm, ranks, state = build_state(inst, params)
        for i in range(20):
            assert list(state.candidates[i]) == list(ranks.rows[i][:5])

    def test_single_entry_heatmap_weight(self):
        inst = generate_uniform(6, 1)
        hm = heatmap_from_rows(6, [[(1, 0.8)], [], [], [], [], []])
        _, _, state = build_state(inst, hm=hm)
        assert weight(state, 0, 1) == pytest.approx(80.0)
        assert weight(state, 1, 0) == pytest.approx(80.0)

    def test_heatmap_neighbors_lead_candidates(self):
        inst = generate_uniform(60, 7)
        _, ranks = dm_and_ranks(inst)
        hm = prior_to_heatmap(BUILTIN_PRIORS["tsp500"], ranks)
        _, _, state = build_state(inst, MctsParams(max_candidate_num=30), hm=hm)
        for i in range(60):
            heat_neighbors = [j for j, _ in hm.row(i)]
            assert set(heat_neighbors) <= set(int(v) for v in state.candidates[i])
            # The heatmap's 24 entries outrank the zero-probability filler.
            assert set(int(v) for v in state.candidates[i][:24]) == set(heat_neighbors)

    def test_zero_value_candidate_edges_floored(self):
        inst = generate_uniform(10, 3)
        _, _, state = build_state(inst, MctsParams(use_heatmap=False, max_candidate_num=4))
        for i in range(10):
            for j in state.candidates[i]:
                assert weight(state, i, j) == 1.0
            assert state.omega[i] > 0

    @pytest.mark.parametrize("n, mcn", [(1500, 20), (500, 1000)])
    def test_build_temporaries_stay_block_sized(self, n, mcn):
        inst = generate_uniform(n, 0)
        dm, ranks = dm_and_ranks(inst)
        hm = prior_to_heatmap(BUILTIN_PRIORS["tsp500"], ranks)
        tracemalloc.start()
        try:
            state = init_state(inst, dm, ranks, hm, MctsParams(max_candidate_num=mcn), 0)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(len(union_neighbors(state, i)) >= min(mcn, n - 1) for i in range(n))
        # Beyond the state itself: a few scratch blocks and a few compact
        # (n, mcn) arrays. One dense n x n temporary (18 MB of float64 at
        # n=1500) would exceed this.
        assert peak - kept <= 8 * BLOCK_ELEMS * 8 + 4 * n * min(mcn, n - 1) * 8

    def test_wide_row_build_peak(self):
        """n=500 with the default mcn over the rank table ``prepare`` builds: the build peaks within
        32 bytes per own candidate plus one scratch block of float64, because each block's
        temporaries are freed before the next block and before omega's sort index."""
        n = 500
        inst = generate_uniform(n, 0)
        dm = distance_matrix(inst)
        ranks = nearest_neighbor_ranks(dm, RANK_TABLE_WIDTH)
        hm = prior_to_heatmap(BUILTIN_PRIORS["tsp500"], ranks)
        tracemalloc.start()
        try:
            init_state(inst, dm, ranks, hm, MctsParams(), 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * n * (n - 1) + 8 * BLOCK_ELEMS

    def test_dimension_mismatch(self):
        inst = generate_uniform(8, 0)
        dm, ranks = dm_and_ranks(inst)
        with pytest.raises(ValueError, match="dimension"):
            init_state(inst, dm, ranks, zero_heatmap(9), MctsParams(), 0)


class TestLayout:
    """W, Q and 1/sqrt(Q+1) sit only beside each city's own candidates."""

    def test_state_bytes_per_candidate_and_city(self):
        """32 bytes per own candidate (int32 city, float64 exp(P), float64 W, int32 Q,
        float64 1/sqrt(Q+1)) and 8 per city (omega): no entries for the reverse direction.
        tsp1000 gives every row more than 20 positive entries, so exp(P) is stored in full (kh = mcn)."""
        n, mcn = 2000, 20
        inst = generate_uniform(n, 0)
        dm, ranks = dm_and_ranks(inst)
        hm = prior_to_heatmap(BUILTIN_PRIORS["tsp1000"], ranks)
        state = init_state(inst, dm, ranks, hm, MctsParams(max_candidate_num=mcn), 0)
        assert state.weights.shape == state.counts.shape == state.qinv.shape == (n, mcn)
        assert sum(a.nbytes for a in vars(state).values() if isinstance(a, np.ndarray)) == 32 * n * mcn + 8 * n

    @pytest.mark.parametrize("prior, kh", [("tsp500", 24), (None, 0)])
    def test_exp_p_stored_for_the_positive_head_only(self, prior, kh):
        """Full 499-wide rows: 24 bytes per own candidate (city, W, Q, 1/sqrt(Q+1)), 8 per stored
        exp(P) and 8 per city. exp(P) is kept for the first kh candidates of each row, kh being the
        most positive heatmap entries of any row (24 for tsp500, none for the Zero heatmap)."""
        n = 500
        mcn = n - 1
        inst = generate_uniform(n, 0)
        dm, ranks = dm_and_ranks(inst)
        hm = prior_to_heatmap(BUILTIN_PRIORS[prior], ranks) if prior else zero_heatmap(n)
        state = init_state(inst, dm, ranks, hm, MctsParams(), 0)
        assert state.cand_exp.shape == (n, kh)
        assert sum(a.nbytes for a in vars(state).values() if isinstance(a, np.ndarray)) == \
            24 * n * mcn + 8 * n * kh + 8 * n

    @pytest.fixture
    def one_way(self):
        """A state with random W and Q, and a one-way edge (i, j): j is i's t-th candidate,
        while i is not among j's candidates."""
        _, _, state = build_state(generate_uniform(40, 2), MctsParams(max_candidate_num=3, use_heatmap=False))
        randomize_weights_and_visits(state, np.random.default_rng(5))
        state.M = 7
        i, t = next((i, t) for i in range(40) for t in range(3)
                    if i not in state.candidates[state.candidates[i, t]].tolist())
        return state, i, int(state.candidates[i, t]), t

    def test_one_way_edge_reads_its_one_slot(self, one_way):
        state, i, j, t = one_way
        w, q, qinv = float(state.weights[i, t]), int(state.counts[i, t]), float(state.qinv[i, t])
        assert weight(state, i, j) == weight(state, j, i) == w
        assert visits(state, i, j) == visits(state, j, i) == q > 0
        scale = math.sqrt(math.log(8))
        for a, b in ((i, j), (j, i)):
            assert potential(state, a, b) == w * (1.0 / state.omega[a]) + scale * qinv

    def test_one_way_edge_writes_its_one_slot(self, one_way):
        state, i, j, t = one_way
        weights, counts, omega = state.weights.copy(), state.counts.copy(), state.omega.copy()
        set_weight(state, j, i, 2.5)
        change = 2.5 - weights[i, t]
        assert np.argwhere(state.weights != weights).tolist() == [[i, t]] and state.weights[i, t] == 2.5
        assert np.flatnonzero(state.omega != omega).tolist() == sorted((i, j))
        assert state.omega[i] == omega[i] + change and state.omega[j] == omega[j] + change
        bump_access(state, j, i)
        assert np.argwhere(state.counts != counts).tolist() == [[i, t]]
        assert state.counts[i, t] == counts[i, t] + 1
        assert state.qinv[i, t] == 1.0 / math.sqrt(counts[i, t] + 2.0)

    def test_edge_off_the_union_is_a_no_op(self, one_way):
        state = one_way[0]
        a, b = next((a, b) for a in range(40) for b in range(40) if a != b
                    and b not in state.candidates[a].tolist() and a not in state.candidates[b].tolist())
        before = [x.copy() for x in (state.weights, state.counts, state.qinv, state.omega)]
        assert weight(state, a, b) == 0.0 and visits(state, b, a) == 0
        set_weight(state, a, b, 3.0)
        bump_access(state, b, a)
        weight_update(state, a, b, 10.0, 9.0)
        assert all(np.array_equal(x, y) for x, y in zip(before, (state.weights, state.counts, state.qinv, state.omega)))
        with pytest.raises(KeyError):
            potential(state, a, b)


def test_omega_temporaries_stay_one_index():
    """Beyond its result, Omega allocates one n * mcn int64 key index and block-sized arrays:
    no dense row, no n x n array and no second index. Rows are offset sets, so that about
    half of the edges are one-way."""
    n, mcn = 4000, 300
    rng = np.random.default_rng(0)
    offsets = rng.permutation(np.arange(1, n))[:mcn]
    chosen = ((np.arange(n)[:, None] + offsets) % n).astype(np.int32)
    own_w = rng.random((n, mcn))
    tracemalloc.start()
    try:
        omega = _omega(chosen, own_w)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - kept <= 8 * n * mcn + 8 * 8 * BLOCK_ELEMS
    one_way = ~np.isin(n - offsets, offsets)
    assert 0 < one_way.sum() < mcn
    want = own_w.sum(axis=1) + np.bincount(chosen[:, one_way].ravel(), weights=own_w[:, one_way].ravel(), minlength=n)
    assert np.allclose(omega, want, rtol=1e-12, atol=0.0)


class TestSampleInitialTour:
    def test_valid_permutation(self):
        inst = generate_uniform(4, 5)
        dm, _, state = build_state(inst)
        tour = sample_initial_tour(state)
        assert sorted(tour.order) == [0, 1, 2, 3]
        assert tour.length == pytest.approx(tour_length(tour.order, dm), rel=1e-12)

    def test_deterministic_under_seed(self):
        inst = generate_uniform(30, 8)
        _, _, s1 = build_state(inst, seed=42)
        _, _, s2 = build_state(inst, seed=42)
        for _ in range(5):
            assert np.array_equal(sample_initial_tour(s1).order, sample_initial_tour(s2).order)

    def test_validity_sweep_zero_heatmap(self):
        inst = generate_uniform(100, 2)
        dm, _, state = build_state(inst, MctsParams(use_heatmap=False, max_candidate_num=8))
        for _ in range(100):
            tour = sample_initial_tour(state)
            assert sorted(tour.order) == list(range(100))
            assert math.isfinite(tour.length) and tour.length > 0


class TestPotential:
    def test_pure_exploitation_at_m_zero(self):
        inst = generate_uniform(10, 4)
        _, _, state = build_state(inst)
        i = 0
        j = int(state.candidates[i][0])
        row_sum = sum(weight(state, i, k) for k in range(10))
        assert potential(state, i, j) == pytest.approx(weight(state, i, j) / row_sum, rel=1e-12)

    def test_point_value(self):
        inst = generate_uniform(5, 0)
        _, _, state = build_state(inst, MctsParams(alpha=1.0))
        for i, j in union_edges(state):
            set_weight(state, i, j, 0.0)
        set_weight(state, 0, 1, 50.0)
        set_weight(state, 0, 2, 50.0)  # row sum 100
        state.M = 1
        expected = 0.5 + math.sqrt(math.log(2.0))
        assert potential(state, 0, 1) == pytest.approx(expected, abs=1e-9)

    def test_alpha_zero_matches_weight_ranking(self):
        inst = generate_uniform(12, 9)
        _, _, state = build_state(inst, MctsParams(alpha=0.0))
        randomize_weights_and_visits(state, np.random.default_rng(0))
        state.M = 17
        for i in range(12):
            cands = [int(j) for j in state.candidates[i]]
            by_z = max(cands, key=lambda j: potential(state, i, j))
            by_w = max(cands, key=lambda j: weight(state, i, j))
            assert by_z == by_w


class TestGenerateMove:
    def test_uncrosses_square(self, unit_square):
        dm, ranks = dm_and_ranks(unit_square)
        state = init_state(unit_square, dm, ranks, zero_heatmap(4), MctsParams(max_depth=2), seed=0)
        tour = make_tour(np.array([0, 2, 1, 3]), dm)
        move = generate_kopt_move(state, tour)
        assert move is not None
        assert move.delta == pytest.approx(4.0 - (2 + 2 * math.sqrt(2)), abs=1e-9)
        assert tour_length(move.new_order, dm) == pytest.approx(4.0, abs=1e-9)

    def test_max_depth_one_is_two_opt(self):
        inst = generate_uniform(15, 6)
        dm, _, state = build_state(inst, MctsParams(max_depth=1))
        tour = sample_initial_tour(state)
        for _ in range(20):
            move = generate_kopt_move(state, tour)
            if move is not None:
                assert len(move.removed) == 2  # one reconnection plus the closing edge
            tour = accept_or_restart(state, tour, move)

    def test_apply_and_recompute_oracle(self):
        rng = np.random.default_rng(123)
        for trial in range(20):
            n = int(rng.integers(8, 30))
            inst = generate_uniform(n, 700 + trial)
            dm, _, state = build_state(inst, MctsParams(max_depth=6, param_h=5), seed=trial)
            tour = sample_initial_tour(state)
            for _ in range(10):
                move = generate_kopt_move(state, tour)
                if move is not None:
                    new_len = tour_length(move.new_order, dm)
                    assert new_len - tour.length == pytest.approx(move.delta, abs=1e-6)
                tour = accept_or_restart(state, tour, move)


class TestAcceptOrRestart:
    def test_improving_move_applied(self, unit_square):
        dm, ranks = dm_and_ranks(unit_square)
        state = init_state(unit_square, dm, ranks, zero_heatmap(4), MctsParams(), seed=1)
        tour = make_tour(np.array([0, 2, 1, 3]), dm)
        move = generate_kopt_move(state, tour)
        assert move is not None and move.delta < 0
        new_tour = accept_or_restart(state, tour, move)
        assert new_tour.length == pytest.approx(tour.length + move.delta, rel=1e-12)
        assert state.M == 1

    def test_no_move_restarts_and_keeps_best(self, unit_square):
        dm, ranks = dm_and_ranks(unit_square)
        state = init_state(unit_square, dm, ranks, zero_heatmap(4), MctsParams(), seed=2)
        tour = make_tour(np.array([0, 1, 2, 3]), dm)  # already optimal
        state.best_order = np.array(tour.order)
        state.best_length = tour.length
        fresh = accept_or_restart(state, tour, None)
        assert state.restarts == 1
        assert state.best_length == pytest.approx(4.0)
        assert sorted(fresh.order) == [0, 1, 2, 3]

    def test_best_length_monotone(self):
        inst = generate_uniform(20, 10)
        _, _, state = build_state(inst, seed=3)
        tour = sample_initial_tour(state)
        history = [state.best_length]
        for _ in range(200):
            tour = accept_or_restart(state, tour, generate_kopt_move(state, tour))
            history.append(state.best_length)
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))


class TestWeightUpdate:
    def test_zero_increment_when_unchanged(self):
        inst = generate_uniform(6, 2)
        _, _, state = build_state(inst)
        i, j = 0, int(state.candidates[0][0])
        before = weight(state, i, j)
        weight_update(state, i, j, 100.0, 100.0)
        assert weight(state, i, j) == pytest.approx(before, abs=1e-15)

    def test_point_increment(self):
        inst = generate_uniform(6, 2)
        _, _, state = build_state(inst, MctsParams(beta=10.0))
        i, j = 0, int(state.candidates[0][0])
        before = weight(state, i, j)
        weight_update(state, i, j, 100.0, 90.0)
        expected = 10.0 * (math.exp(0.1) - 1.0)
        assert weight(state, i, j) - before == pytest.approx(expected, abs=1e-9)
        assert weight(state, j, i) == weight(state, i, j)

    def test_worsening_floors_at_epsilon(self):
        inst = generate_uniform(6, 2)
        _, _, state = build_state(inst, MctsParams(beta=150.0))
        i, j = 0, int(state.candidates[0][0])
        weight_update(state, i, j, 100.0, 1000.0)
        assert weight(state, i, j) == W_FLOOR


class TestSolve:
    def test_tiny_budget_still_valid(self):
        inst = generate_uniform(10, 5)
        dm, ranks = dm_and_ranks(inst)
        hm = zero_heatmap(10)
        result = solve(inst, dm, ranks, hm, MctsParams(), 0, Budget("iters", 1))
        assert sorted(result.best_tour.order) == list(range(10))

    def test_wall_budget_runs_to_its_deadline(self):
        inst = generate_uniform(12, 7)
        dm, ranks = dm_and_ranks(inst)
        result = solve(inst, dm, ranks, zero_heatmap(12), MctsParams(), 0, Budget("wall", 0.01))
        order = result.best_tour.order
        assert sorted(order.tolist()) == list(range(12))
        assert result.best_tour.length == tour_length(order, dm)
        assert result.simulations > 0
        assert 0.12 <= result.wall_time < 5.12  # 0.01 s per city; the slack absorbs host load

    def test_deterministic_trajectory(self):
        inst = generate_uniform(25, 14)
        dm, ranks = dm_and_ranks(inst)
        hm = prior_to_heatmap(BUILTIN_PRIORS["tsp500"], ranks)
        a = solve(inst, dm, ranks, hm, MctsParams(), 9, Budget("iters", 3000))
        b = solve(inst, dm, ranks, hm, MctsParams(), 9, Budget("iters", 3000))
        assert np.array_equal(a.best_tour.order, b.best_tour.order)
        assert a.best_tour.length == b.best_tour.length
        assert a.moves_accepted == b.moves_accepted
        assert a.restarts == b.restarts

    def test_state_invariants_after_run(self):
        inst = generate_uniform(18, 21)
        dm, ranks = dm_and_ranks(inst)
        from tspmcts.mcts import init_state as mk

        state = mk(inst, dm, ranks, zero_heatmap(18), MctsParams(max_candidate_num=5), 4)
        tour = sample_initial_tour(state)
        accepted = noise = 0
        for _ in range(400):
            move = generate_kopt_move(state, tour)
            if move is not None and move.delta < 0:
                accepted += move.delta < -IMPROVE_REL * tour.length
                noise += move.delta >= -IMPROVE_REL * tour.length
            tour = accept_or_restart(state, tour, move)
        for i in range(18):
            for j in range(18):
                assert weight(state, i, j) == weight(state, j, i)
                assert visits(state, i, j) == visits(state, j, i)
                assert weight(state, i, j) >= 0 and visits(state, i, j) >= 0
        assert state.M == accepted and state.noise_rejects == noise
        rows = [[weight(state, i, j) for j in union_neighbors(state, i).tolist()] for i in range(18)]
        kept = [w for row in rows for w in row if w > 0]
        assert min(kept) >= W_FLOOR - 1e-18
        for i in range(18):
            assert state.omega[i] == pytest.approx(sum(rows[i]), rel=1e-12)

    def test_zero_heatmap_reaches_finite_gap(self):
        inst = generate_uniform(12, 33)
        dm, ranks = dm_and_ranks(inst)
        params = MctsParams(use_heatmap=False)
        result = solve(inst, dm, ranks, zero_heatmap(12), params, 0, Budget("iters", 5000))
        gap = (result.best_tour.length / exact_solve(dm).length - 1) * 100
        assert gap < 5.0


@pytest.mark.parametrize("field, value", [
    ("alpha", math.nan), ("alpha", math.inf), ("beta", math.nan), ("beta", math.inf),
])
def test_params_reject_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        MctsParams(**{field: value})


def golden_solve(n, seed, iters, metric=Metric.EUC2D_REAL, scale=1.0, prior=None, **params):
    inst = generate_uniform(n, seed)
    if scale != 1.0:
        inst = Instance(id=inst.id, points=inst.points * scale)
    dm, ranks = dm_and_ranks(inst, metric)
    hm = prior_to_heatmap(BUILTIN_PRIORS[prior], ranks) if prior else zero_heatmap(n)
    result = solve(inst, dm, ranks, hm, MctsParams(**params), seed, Budget("iters", iters))
    order = np.asarray(result.best_tour.order, dtype=np.int32)
    assert result.best_tour.length == tour_length(order, dm)  # summed from the tour, not from deltas
    digest = hashlib.sha256(order.tobytes()).hexdigest()[:16]
    return float.hex(result.best_tour.length), result.moves_accepted, result.restarts, digest


#: Iters-mode trajectories pinned bit for bit: float.hex of the best length,
#: moves accepted, restarts and a digest of the best order. Pure refactors and
#: speed-ups keep them; a change that alters trajectories on purpose
#: re-records them and says so.
GOLDEN = [
    (dict(n=12, seed=1, iters=2000, alpha=0.0, max_candidate_num=5),
     ("0x1.6cb6f15c8e8a8p+1", 127, 73, "1f96d5b713ae2b7d")),
    (dict(n=12, seed=1, iters=2000, alpha=0.0, max_candidate_num=1000),
     ("0x1.6cb6f15c8e8a8p+1", 145, 55, "1f96d5b713ae2b7d")),
    (dict(n=12, seed=1, iters=2000, alpha=1.0, max_candidate_num=5),
     ("0x1.6cb6f15c8e8a8p+1", 147, 53, "1f96d5b713ae2b7d")),
    (dict(n=12, seed=1, iters=2000, alpha=1.0, max_candidate_num=1000),
     ("0x1.7d76b10948516p+1", 161, 39, "8908d2da3ff5814d")),
    (dict(n=60, seed=2, iters=6000, metric=Metric.EUC2D_INT, scale=1000.0, prior="tsp500",
          max_candidate_num=30),
     ("0x1.1818000000000p+13", 539, 61, "1400cb13cf814a28")),
    # Zero heatmap with use_heatmap on: every potential in a row ties.
    (dict(n=100, seed=3, iters=4000, use_heatmap=True),
     ("0x1.a37807229903bp+3", 390, 10, "9e393c9162f1e569")),
    (dict(n=200, seed=4, iters=8000, prior="tsp500", max_candidate_num=20),
     ("0x1.ccdf0f14995d2p+3", 752, 48, "fac0edaca0a840c3")),
    # A prior on full-width rows (mcn 299), the shape of the default solve at n = 500.
    (dict(n=300, seed=5, iters=3000, prior="tsp500"),
     ("0x1.5fbe1f895945cp+4", 297, 3, "63c9e8b93c1710ca")),
]


@pytest.mark.parametrize("case, expected", GOLDEN, ids=[f"golden{k}" for k in range(len(GOLDEN))])
def test_golden_trajectory(case, expected):
    assert golden_solve(**case) == expected


@pytest.mark.parametrize("seed, kind", enumerate(["alpha0", "m0", "random", "tied"]))
def test_chain_picks_potential_argmax(seed, kind):
    """A depth-1 chain reconnects to the argmax of potential() over the head's
    own candidates, skipping ``a`` and the path successor; ties go to the
    first in candidate order. The first 25 trials have n < 40; the last three
    have rows of 66 to 82 candidates."""
    rng = np.random.default_rng(seed)
    for trial in range(28):
        wide = trial >= 25
        n = int(rng.integers(67, 84)) if wide else int(rng.integers(5, 40))
        inst = generate_uniform(n, 900 + trial)
        _, ranks = dm_and_ranks(inst)
        hm = zero_heatmap(n) if kind == "tied" else prior_to_heatmap(BUILTIN_PRIORS["tsp500"], ranks)
        mcn = 1000 if wide else int(rng.choice([2, 5, 1000]))
        params = MctsParams(alpha=0.0 if kind == "alpha0" else 1.0, max_depth=1, max_candidate_num=mcn)
        _, _, state = build_state(inst, params, hm=hm, seed=trial)
        assert (state.candidates.shape[1] >= 66) == wide
        # Fewer visits on the wide rows' many edges keep the trials short.
        max_visits = 5 if wide else 50
        if kind == "alpha0":
            randomize_weights_and_visits(state, rng, max_visits=max_visits)
        elif kind == "random":
            randomize_weights_and_visits(state, rng, weight_values=[0.5, 1.0, 2.0], max_visits=3)
        elif kind == "m0":
            randomize_weights_and_visits(state, rng, weight_values=[0.5, 1.0, 2.0], max_visits=max_visits)
        state.M = 0 if kind == "m0" else int(rng.integers(1, 100))
        order = [int(v) for v in rng.permutation(n)]
        for _ in range(10):
            ia = int(rng.integers(n))
            a = order[ia]
            break_succ = bool(rng.integers(2))
            step = 1 if break_succ else -1
            head, p1 = order[(ia + step) % n], order[(ia + 2 * step) % n]
            eligible = [int(j) for j in state.candidates[head] if j not in (a, p1)]
            chain = _sample_chain(state, _target_picker(state), order, a, break_succ)
            if not eligible:
                assert chain is None
                continue
            best = max(potential(state, head, j) for j in eligible)
            expected = next(j for j in eligible if potential(state, head, j) == best)
            assert chain[2][0] == (head, expected)


@pytest.mark.parametrize("n, mcn", [(30, 5), (80, 1000)], ids=["narrow", "wide"])
def test_tied_potentials_pick_the_first_candidate(n, mcn):
    """With the Zero heatmap at M = 0 every potential in a row ties: the chain takes the first
    candidate in row order (the nearest city) that it may take, not the smallest city index."""
    _, _, state = build_state(generate_uniform(n, 3), MctsParams(max_candidate_num=mcn))
    pick = _target_picker(state)
    index_rule_differs = 0
    for head in range(n):
        row = state.candidates[head].tolist()
        assert len({potential(state, head, j) for j in row}) == 1
        assert pick(head, row[0], row[1]) == row[2]
        assert pick(head, -1, row[0]) == row[1]
        index_rule_differs += row[2] != min(row[2:])
    assert index_rule_differs > n // 2


@pytest.mark.parametrize("width", [3, 20, 499])
def test_picker_takes_the_best_of_three(width):
    """Picks follow (Z descending, candidate order): when the two best are ``a`` and ``p1`` the
    pick is the third, and a tie for third goes to the first of the two in candidate order."""
    rng = np.random.default_rng(width)
    _, _, state = build_state(generate_uniform(width + 1, 4), MctsParams(alpha=0.0, max_candidate_num=width))
    row = state.candidates[0].tolist()
    for t, w in enumerate(rng.permutation(width) + 1.0):
        set_weight(state, 0, row[t], float(w))
    first, second, third = sorted(row, key=lambda j: -potential(state, 0, j))[:3]
    pick = _target_picker(state)
    assert pick(0, first, second) == pick(0, second, first) == third
    if width < 4:
        return
    top, tied = np.split(rng.choice(width, 4, replace=False), 2)
    for t in range(width):
        set_weight(state, 0, row[t], 10.0 if t in top else 5.0 if t in tied else 1.0)
    pick = _target_picker(state)
    assert pick(0, row[top[0]], row[top[1]]) == row[min(tied)]


@pytest.mark.parametrize("width", [1, 2])
def test_picker_returns_minus_one_when_every_candidate_is_excluded(width):
    _, _, state = build_state(generate_uniform(6, 5), MctsParams(max_candidate_num=width))
    row = state.candidates[0].tolist()
    excluded = (row + [-1])[:2]
    pick = _target_picker(state)
    assert pick(0, *excluded) == pick(0, *excluded[::-1]) == -1


def reference_accept(state, move, l_old):
    """W, Q, 1/sqrt(Q+1) and Omega after a move, applied one edge at a time on copies:
    bump every removed edge, then count and reinforce every added edge."""
    w, q, omega = state.weights.copy(), state.counts.copy(), state.omega.copy()
    increment = state.params.beta * math.expm1((l_old - (l_old + move.delta)) / l_old)

    def slots(i, j):
        return [(r, int(t)) for r, c in ((i, j), (j, i)) for t in np.flatnonzero(state.candidates[r] == c)]

    for i, j in move.removed:
        for s in slots(i, j):
            q[s] += 1
    for i, j in move.added:
        if held := slots(i, j):
            new = max(w[held[0]] + increment, W_FLOOR)
            change = new - w[held[0]]
            for s in held:
                q[s] += 1
                w[s] = new
            omega[i] += change
            omega[j] += change
    return w, q, 1.0 / np.sqrt(q + 1.0), omega


def test_accept_applies_a_step_the_chain_undid():
    """A chain step may pick the previous target again and so remove the edge it just added:
    accepting such a move counts that edge once as removed and once as added, in order."""
    rng = np.random.default_rng(11)
    inst = generate_uniform(14, 6)
    dm, _, state = build_state(inst, MctsParams(max_candidate_num=5, max_depth=10))
    randomize_weights_and_visits(state, rng, max_visits=5)
    state.M = 9
    pick = _target_picker(state)

    def undone_moves():
        for _ in range(50):
            order = [int(v) for v in rng.permutation(inst.n)]
            length = tour_length(np.array(order), dm)
            for ia in range(inst.n):
                for break_succ in (True, False):
                    chain = _sample_chain(state, pick, order, order[ia], break_succ)
                    if chain is None or chain[0] >= -IMPROVE_REL * length:
                        continue
                    delta, new_order, added, removed = chain
                    if {frozenset(e) for e in added} & {frozenset(e) for e in removed}:
                        yield Tour(np.array(order), length), Move(np.array(new_order, dtype=np.int32),
                                                                    delta, tuple(added), tuple(removed))

    tour, move = next(undone_moves())
    expected = reference_accept(state, move, tour.length)
    accept_or_restart(state, tour, move)
    for got, want in zip((state.weights, state.counts, state.qinv, state.omega), expected):
        assert np.array_equal(got, want)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(3, 30), mcn=st.integers(1, 8), seed=st.integers(0, 20))
def test_slots_of_matches_a_scan(data, n, mcn, seed):
    """One batch of mutual, one-way, off-union and repeated edges gets, per edge, the slots a
    scan of both rows finds: row i's first, then row j's."""
    _, _, state = build_state(generate_uniform(n, seed), MctsParams(max_candidate_num=mcn, use_heatmap=False))
    cands = state.candidates.tolist()
    width = len(cands[0])
    city = st.integers(0, n - 1)
    own = st.tuples(city, st.integers(0, width - 1)).map(lambda it: (it[0], cands[it[0]][it[1]]))
    pair = st.tuples(city, city).filter(lambda e: e[0] != e[1])
    edges = data.draw(st.lists(st.one_of(own, own.map(lambda e: e[::-1]), pair), max_size=24))
    if edges:
        edges += data.draw(st.lists(st.sampled_from(edges), max_size=6))
    expected = [tuple(r * width + t for r, c in ((i, j), (j, i)) for t in range(width) if cands[r][t] == c)
                for i, j in edges]
    assert _slots_of(state, edges) == expected


def test_accepts_only_real_improvements():
    """n=12 over 2000 simulations: many chains close on a tour of the same length, which the
    accumulated deltas show as a tiny negative change. Every accepted move shortens the tour by
    more than IMPROVE_REL of its length; the others restart and count as noise rejects."""
    inst = generate_uniform(12, 1)
    dm, ranks = dm_and_ranks(inst)
    params = MctsParams(alpha=0.0, max_candidate_num=5)
    state = init_state(inst, dm, ranks, zero_heatmap(12), params, 1)
    tour = sample_initial_tour(state)
    noise = 0
    while state.simulations < 2000:  # solve's loop, observed
        move = generate_kopt_move(state, tour)
        accepted = state.M
        next_tour = accept_or_restart(state, tour, move)
        if state.M > accepted:
            assert move.delta < -IMPROVE_REL * tour.length
        elif move is not None and move.delta < 0.0:
            noise += 1
        tour = next_tour
    assert state.noise_rejects == noise > 0
    result = solve(inst, dm, ranks, zero_heatmap(12), params, 1, Budget("iters", 2000))
    assert (result.moves_accepted, result.noise_rejects) == (state.M, noise)


def test_optimal_run_reports_a_gap_of_exactly_zero():
    """n=9 runs that reach the Held-Karp optimum report its length bit for bit: the best tour's
    length is summed from its canonical order, as the oracle sums its own tour's."""
    for seed in range(5):
        task = (generate_uniform(9, seed), None, lambda inst, dm, ranks: zero_heatmap(inst.n))
        prep = prepare(*task)
        result = solve(prep.inst, prep.dm, prep.ranks, prep.heatmap, MctsParams(), seed, Budget("iters", 2000))
        assert np.array_equal(result.best_tour.order, exact_solve(prep.dm).order)
        row = run_benchmark([task], {"default": MctsParams()}, Budget("iters", 2000), seed=seed).rows[0]
        assert row.solver_length == row.reference_length
        assert row.gap_percent == 0.0 and math.copysign(1.0, row.gap_percent) == 1.0


@st.composite
def degenerate_points(draw):
    """3..12 points on a tiny integer grid (duplicates, collinear triples) or on one line."""
    n = draw(st.integers(3, 12))
    if draw(st.booleans()):
        xs = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
        return np.array([[x, 0.5 * x] for x in xs], dtype=float)
    cells = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=n, max_size=n))
    return np.array(cells, dtype=float)


@settings(max_examples=150, deadline=None)
@given(
    points=degenerate_points(),
    mcn=st.integers(1, 12),
    depth=st.integers(1, 12),
    use_heatmap=st.booleans(),
    prior=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_moves_exact_on_degenerate_geometry(points, mcn, depth, use_heatmap, prior, seed):
    inst = Instance(id="degenerate", points=points)
    dm, ranks = dm_and_ranks(inst)
    hm = prior_to_heatmap(BUILTIN_PRIORS["tsp500"], ranks) if prior else zero_heatmap(inst.n)
    params = MctsParams(max_depth=depth, max_candidate_num=mcn, param_h=3, use_heatmap=use_heatmap)
    state = init_state(inst, dm, ranks, hm, params, seed)
    tour = sample_initial_tour(state)
    for _ in range(12):
        move = generate_kopt_move(state, tour)
        if move is not None:
            assert sorted(move.new_order.tolist()) == list(range(inst.n))
            length = tour_length(tour.order, dm)
            change = tour_length(move.new_order, dm) - length
            assert abs(change - move.delta) <= 1e-9 * length
        tour = accept_or_restart(state, tour, move)
