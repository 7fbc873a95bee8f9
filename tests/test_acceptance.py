"""End-to-end acceptance checks.

Each test covers one exit criterion at its stated tolerance and prints a
PASS line when it holds (failures surface as regular pytest failures).
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
import math
import time

import numpy as np
import pytest

from tspmcts.evalkit import Budget, optimality_gap, prepare, run_benchmark
from tspmcts.heatmaps import (
    BUILTIN_PRIORS,
    PriorSource,
    build_gt_prior,
    prior_to_heatmap,
    zero_heatmap,
)
from tspmcts.instances import Metric, distance_matrix, generate_uniform, nearest_neighbor_ranks, parse_tsplib
from tspmcts.knn_stats import EmpiricalDistribution, aggregate, cumulative_mass, per_instance_distribution
from tspmcts.mcts import MctsParams, _set_weight, accept_or_restart, generate_kopt_move, init_state, potential, sample_initial_tour, solve, weight, weight_update
from tspmcts.tours import exact_solve, parse_tour, tour_length
from tspmcts.tuner import DEFAULT_PARAMS, SearchSpace, config_key, grid_configs, make_benchmark_evaluator, shapley_for_all_configs, tune

from conftest import brute_force_solve, union_neighbors

CORPUS_SIZE = 200
CORPUS_N = 12
HELD_OUT = 20


def report(criterion: int, text: str) -> None:
    print(f"\nACCEPTANCE {criterion:02d} PASS: {text}")


@pytest.fixture(scope="module")
def oracle_corpus():
    """200 uniform n=12 instances solved exactly, plus build time."""
    start = time.monotonic()
    dms, tours = [], []
    for i in range(CORPUS_SIZE):
        dm = distance_matrix(generate_uniform(CORPUS_N, 10_000 + i))
        dms.append(dm)
        tours.append(exact_solve(dm))
    return dms, tours, time.monotonic() - start


@pytest.fixture(scope="module")
def held_out_set():
    """20 held-out n=12 instances with their exact optima."""
    items = []
    for i in range(HELD_OUT):
        inst = generate_uniform(CORPUS_N, 20_000 + i)
        dm = distance_matrix(inst)
        ranks = nearest_neighbor_ranks(dm)
        items.append((inst, dm, ranks, exact_solve(dm).length))
    return items


def test_c01_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(0)
    for i in range(50):
        n = int(rng.integers(6, 10))
        inst = generate_uniform(n, 30_000 + i)
        dm = distance_matrix(inst)
        hk = exact_solve(dm)
        bf = brute_force_solve(dm)
        # identical optimal tours make the recomputed lengths bitwise equal
        assert tour_length(hk.order, dm) == tour_length(bf.order, dm), f"instance {i}"
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(1, f"exact_solve == brute force on 50 instances (n=6..9) in {elapsed:.1f}s")


def test_c02_move_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(1)
    moves_checked = 0
    for i in range(100):
        n = int(rng.integers(20, 61))
        inst = generate_uniform(n, 40_000 + i)
        dm = distance_matrix(inst)
        ranks = nearest_neighbor_ranks(dm)
        hm = prior_to_heatmap(BUILTIN_PRIORS["tsp500"], ranks)
        state = init_state(inst, dm, ranks, hm, MctsParams(), seed=i)
        tour = sample_initial_tour(state)
        for _ in range(8):
            move = generate_kopt_move(state, tour)
            if move is not None:
                new_len = tour_length(move.new_order, dm)  # validates the permutation
                assert abs((new_len - tour.length) - move.delta) <= 1e-6
                moves_checked += 1
            tour = accept_or_restart(state, tour, move)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(2, f"{moves_checked} k-opt moves on 100 instances apply exactly in {elapsed:.1f}s")


def test_c03_solver_quality_desk_scale(oracle_corpus, held_out_set):
    dms, tours, corpus_time = oracle_corpus
    start = time.monotonic()
    prior = build_gt_prior(dms, tours)
    gaps_gt, gaps_zero = [], []
    for idx, (inst, dm, ranks, opt_len) in enumerate(held_out_set):
        hm = prior_to_heatmap(prior, ranks)
        res = solve(inst, dm, ranks, hm, MctsParams(), idx, Budget("iters", 50_000))
        gaps_gt.append(optimality_gap(res.best_tour.length, opt_len))
        res = solve(
            inst, dm, ranks, zero_heatmap(inst.n),
            MctsParams(use_heatmap=False), idx, Budget("iters", 50_000),
        )
        gaps_zero.append(optimality_gap(res.best_tour.length, opt_len))
    mean_gt = float(np.mean(gaps_gt))
    mean_zero = float(np.mean(gaps_zero))
    elapsed = time.monotonic() - start + corpus_time
    assert mean_gt <= 2.0, f"GT-Prior mean gap {mean_gt:.4f}% > 2%"
    assert mean_zero <= 5.0, f"Zero mean gap {mean_zero:.4f}% > 5%"
    assert elapsed < 300.0
    report(3, f"mean gap GT-Prior {mean_gt:.4f}% (<=2%), Zero {mean_zero:.4f}% (<=5%) in {elapsed:.0f}s")


def test_c04_tuning_dominance(oracle_corpus, held_out_set):
    dms, tours, _ = oracle_corpus
    start = time.monotonic()
    prior = build_gt_prior(dms, tours)
    instances = [inst for inst, _, _, _ in held_out_set]
    space = SearchSpace(
        alpha=(0.0, 1.0), beta=(10.0, 100.0), max_depth=(10, 50),
        max_candidate_num=(1000,), param_h=(10,), use_heatmap=(True,),
    )
    assert config_key(DEFAULT_PARAMS) in {config_key(c) for c in grid_configs(space)}
    evaluator = make_benchmark_evaluator(
        instances, PriorSource(prior), Budget("iters", 5_000), seed=0,
    )
    rpt = tune(space, evaluator)
    elapsed = time.monotonic() - start
    assert rpt.default_gap is not None
    assert rpt.best_gap <= rpt.default_gap + 1e-12
    assert elapsed < 600.0
    report(4, f"2x2x2 grid best {rpt.best_gap:.4f}% <= default {rpt.default_gap:.4f}% in {elapsed:.0f}s")


def test_c05_published_vectors():
    start = time.monotonic()
    for name, prior in BUILTIN_PRIORS.items():
        assert abs(prior.masses.sum() - 1.0) <= 1e-6, name
        dist = EmpiricalDistribution(masses=prior.masses, sample_count=1)
        assert cumulative_mass(dist, 5) > 0.94, name
    tsp500 = EmpiricalDistribution(masses=BUILTIN_PRIORS["tsp500"].masses, sample_count=1)
    assert cumulative_mass(tsp500, 1) == 0.440078125
    assert time.monotonic() - start < 1.0
    report(5, "built-in prior vectors: unit sums, exact k=1 mass, top-5 > 94%")


def test_c06_knn_locality(oracle_corpus):
    dms, tours, corpus_time = oracle_corpus
    start = time.monotonic()
    dists = [per_instance_distribution(dm, t) for dm, t in zip(dms, tours)]
    combined = aggregate(dists)
    top5 = cumulative_mass(combined, 5)
    elapsed = time.monotonic() - start + corpus_time
    assert top5 >= 0.90, f"top-5 mass {top5:.4f} < 0.90"
    assert elapsed < 120.0
    report(6, f"top-5 neighbor mass {top5:.4f} >= 0.90 over {CORPUS_SIZE} exact tours in {elapsed:.0f}s")


def test_c07_gap_arithmetic():
    # Published two-decimal (length, reference, gap%) triples. Rows whose
    # printed gap is not reproducible from the rounded lengths are excluded.
    pairs = [
        (16.66, 16.55, 0.66), (16.66, 16.55, 0.69), (16.62, 16.55, 0.43),
        (16.60, 16.55, 0.33), (16.63, 16.55, 0.50),
        (23.39, 23.12, 1.16), (23.37, 23.12, 1.09), (23.37, 23.12, 1.11),
        (23.47, 23.12, 1.53), (23.30, 23.12, 0.80), (23.24, 23.12, 0.53),
        (23.31, 23.12, 0.85),
        (74.50, 71.78, 3.79), (73.95, 71.78, 3.02), (73.97, 71.78, 3.05),
        (73.89, 71.78, 2.94), (73.47, 71.78, 2.36), (73.31, 71.78, 2.13),
    ]
    worst = 0.0
    for length, ref, printed in pairs:
        diff = abs(optimality_gap(length, ref) - printed)
        worst = max(worst, diff)
        assert diff <= 0.03, (length, ref, printed, diff)
    report(7, f"{len(pairs)} published gap pairs reproduced within 0.03pp (worst {worst:.4f}pp)")


def test_c08_shapley_axioms():
    start = time.monotonic()
    space = SearchSpace()
    configs = grid_configs(space)
    rng = np.random.default_rng(2)

    # Efficiency on every grid config of a random game.
    gaps = rng.random(len(configs)).tolist()
    grand = float(np.mean(gaps))
    for gap, phi in zip(gaps, shapley_for_all_configs(space, gaps)):
        assert abs(sum(phi.values()) - (gap - grand)) <= 1e-9

    # Dummy: a game ignoring param_h gives it zero attribution everywhere.
    dummy_gaps = [abs(c.alpha - 1) + c.max_depth / 100 + (not c.use_heatmap) for c in configs]
    for phi in shapley_for_all_configs(space, dummy_gaps):
        assert abs(phi["param_h"]) <= 1e-9

    # Symmetry: interchangeable max_depth / max_candidate_num roles.
    depth_pos = {v: i for i, v in enumerate(space.max_depth)}
    mcn_pos = {v: i for i, v in enumerate(space.max_candidate_num)}
    sym_gaps = [float(depth_pos[c.max_depth] + mcn_pos[c.max_candidate_num]) for c in configs]
    sym_phi = shapley_for_all_configs(space, sym_gaps)
    for cfg, phi in zip(configs, sym_phi):
        if depth_pos[cfg.max_depth] == mcn_pos[cfg.max_candidate_num]:
            assert abs(phi["max_depth"] - phi["max_candidate_num"]) <= 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(8, f"shapley efficiency/dummy/symmetry hold to 1e-9 over 864 configs in {elapsed:.1f}s")


def test_c09_potential_and_weight_update_point_checks():
    inst = generate_uniform(5, 0)
    dm = distance_matrix(inst)
    ranks = nearest_neighbor_ranks(dm)
    state = init_state(inst, dm, ranks, zero_heatmap(5), MctsParams(alpha=1.0, beta=10.0), seed=0)
    for j in union_neighbors(state, 0).tolist():
        _set_weight(state, 0, j, 0.0)
    _set_weight(state, 0, 1, 50.0)
    _set_weight(state, 0, 2, 50.0)  # row sum 100
    state.M = 1
    expected_z = 0.5 + math.sqrt(math.log(2.0))
    assert abs(potential(state, 0, 1) - expected_z) <= 1e-9

    state2 = init_state(inst, dm, ranks, zero_heatmap(5), MctsParams(beta=10.0), seed=0)
    i, j = 0, int(state2.candidates[0][0])
    before = weight(state2, i, j)
    weight_update(state2, i, j, 100.0, 90.0)
    increment = weight(state2, i, j) - before
    assert abs(increment - 10.0 * (math.exp(0.1) - 1.0)) <= 1e-9
    report(9, "potential and weight-update point values match to 1e-9")


def test_c10_determinism_and_scheduling_independence():
    inst = generate_uniform(15, 123)
    dm = distance_matrix(inst)
    ranks = nearest_neighbor_ranks(dm)
    hm = prior_to_heatmap(BUILTIN_PRIORS["tsp500"], ranks)
    a = solve(inst, dm, ranks, hm, MctsParams(), 7, Budget("iters", 2_000))
    b = solve(inst, dm, ranks, hm, MctsParams(), 7, Budget("iters", 2_000))
    assert np.array_equal(a.best_tour.order, b.best_tour.order)
    assert a.best_tour.length == b.best_tour.length

    batch = [generate_uniform(14, 50_000 + i) for i in range(8)]
    prepared = [prepare(inst, None, PriorSource(BUILTIN_PRIORS["tsp500"])) for inst in batch]
    kwargs = dict(params=MctsParams(), budget=Budget("iters", 600), seed=3)
    serial = run_benchmark(prepared, **kwargs, jobs=1)
    parallel = run_benchmark(prepared, **kwargs, jobs=8)
    for r1, r8 in zip(serial.rows, parallel.rows):
        assert r1.instance_id == r8.instance_id
        assert r1.solver_length == r8.solver_length  # bitwise float equality
        assert r1.gap_percent == r8.gap_percent
    report(10, "fixed-seed runs bit-identical; jobs=1 vs jobs=8 rows identical")


def test_c11_tsplib_eil51(eil51_text, eil51_tour_text):
    inst = parse_tsplib(eil51_text)
    assert inst.n == 51
    dm = distance_matrix(inst, Metric.EUC2D_INT)
    order = parse_tour(eil51_tour_text)
    length = tour_length(order, dm)
    assert length == 426
    report(11, "eil51 parses to n=51; published optimal tour scores 426 (integer metric)")
