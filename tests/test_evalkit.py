import math
import tracemalloc
import weakref

import numpy as np
import pytest

from tspmcts.evalkit import (
    RANK_TABLE_WIDTH,
    Budget,
    MissingReferenceError,
    ResultTable,
    optimality_gap,
    prepare,
    reference_length_for,
    run_benchmark,
)
from tspmcts.heatmaps import BUILTIN_PRIORS, PriorSource, ZeroSource
from tspmcts.instances import generate_uniform
from tspmcts.mcts import MctsParams, solve
from tspmcts.tours import exact_solve

from conftest import dm_and_ranks


class TestOptimalityGap:
    def test_identity_is_zero(self):
        assert optimality_gap(16.55, 16.55) == 0.0

    def test_rounded_benchmark_pairs(self):
        assert optimality_gap(16.63, 16.55) == pytest.approx(0.4834, abs=5e-4)
        assert optimality_gap(23.39, 23.12) == pytest.approx(1.1678, abs=5e-4)

    def test_reference_must_be_positive(self):
        with pytest.raises(ValueError):
            optimality_gap(10.0, 0.0)
        with pytest.raises(ValueError):
            optimality_gap(10.0, -1.0)

    def test_scale_invariance(self):
        base = optimality_gap(12.34, 11.9)
        for c in (0.001, 3.7, 1e4):
            assert optimality_gap(c * 12.34, c * 11.9) == pytest.approx(base, rel=1e-9)


class TestReferenceLength:
    def test_oracle_fallback(self):
        inst = generate_uniform(9, 17)
        dm, _ = dm_and_ranks(inst)
        assert reference_length_for(inst, dm, None) == exact_solve(dm).length

    def test_supplied_tour_wins(self):
        inst = generate_uniform(9, 17)
        dm, _ = dm_and_ranks(inst)
        order = np.arange(9)
        from tspmcts.tours import tour_length

        assert reference_length_for(inst, dm, order) == tour_length(order, dm)

    def test_missing_reference_for_large_instance(self):
        inst = generate_uniform(19, 0)
        dm, _ = dm_and_ranks(inst)
        with pytest.raises(MissingReferenceError):
            reference_length_for(inst, dm, None)


@pytest.fixture(scope="module")
def small_set():
    return [generate_uniform(10, 900 + i) for i in range(4)]


def prepared_zero(instances, reference_tours=None):
    if reference_tours is None:
        reference_tours = [None] * len(instances)
    return (prepare(inst, ref, ZeroSource()) for inst, ref in zip(instances, reference_tours, strict=True))


class TestRunBenchmark:
    def test_rows_in_instance_order(self, small_set):
        table = run_benchmark(
            prepared_zero(small_set), MctsParams(use_heatmap=False),
            Budget("iters", 300), seed=1,
        )
        assert [r.instance_id for r in table.rows] == [i.id for i in small_set]
        assert all(math.isfinite(r.gap_percent) and r.gap_percent >= -1e-9 for r in table.rows)

    def test_deterministic_and_scheduling_independent(self, small_set):
        def fingerprint(table):
            # wall_time is the only legitimately non-deterministic field
            return [
                (r.instance_id, r.solver_length, r.reference_length, r.gap_percent, r.seed)
                for r in table.rows
            ]

        kwargs = dict(params=MctsParams(use_heatmap=False), budget=Budget("iters", 300), seed=5)
        serial = run_benchmark(prepared_zero(small_set), **kwargs, jobs=1)
        again = run_benchmark(prepared_zero(small_set), **kwargs, jobs=1)
        parallel = run_benchmark(prepared_zero(small_set), **kwargs, jobs=3)
        assert fingerprint(serial) == fingerprint(again)
        assert fingerprint(serial) == fingerprint(parallel)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_live_preparations_bounded_by_jobs(self, jobs):
        refs = []
        peak = 0

        def tracked():
            nonlocal peak
            for i in range(8):
                prep = prepare(generate_uniform(30, 700 + i), np.arange(30), ZeroSource())
                refs.append(weakref.ref(prep))
                peak = max(peak, sum(r() is not None for r in refs))
                yield prep
                del prep

        table = run_benchmark(tracked(), MctsParams(use_heatmap=False), Budget("iters", 100), jobs=jobs)
        assert len(table.rows) == 8
        assert peak <= jobs + 1

    def test_mean_matches_rows(self, small_set):
        table = run_benchmark(
            prepared_zero(small_set), MctsParams(use_heatmap=False),
            Budget("iters", 200), seed=2,
        )
        assert table.mean_gap == pytest.approx(
            sum(r.gap_percent for r in table.rows) / len(table.rows), rel=1e-12
        )
        assert table.min_gap == min(r.gap_percent for r in table.rows)
        assert table.max_gap == max(r.gap_percent for r in table.rows)

    def test_empty_table(self):
        table = run_benchmark(prepared_zero([]), MctsParams(), Budget("iters", 10))
        assert table.rows == ()
        assert math.isnan(table.mean_gap)

    def test_reference_alignment_checked(self, small_set):
        with pytest.raises(ValueError):
            run_benchmark(prepared_zero(small_set, [None]), MctsParams(), Budget("iters", 10))

    def test_csv_schema(self, small_set, tmp_path):
        table = run_benchmark(
            prepared_zero(small_set[:2]), MctsParams(use_heatmap=False),
            Budget("iters", 100), heatmap_id="zero",
        )
        path = tmp_path / "out.csv"
        table.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "instance,config,heatmap,length,ref_length,gap_pct,time_s,seed"
        assert len(lines) == 3


def test_budget_validation():
    with pytest.raises(ValueError):
        Budget("steps", 5)
    with pytest.raises(ValueError):
        Budget("iters", 0)
    with pytest.raises(ValueError):
        Budget("iters", math.nan)
    with pytest.raises(ValueError):
        Budget("wall", math.inf)


def test_prepare_and_solve_take_o_nk_memory():
    n = 2000
    inst = generate_uniform(n, 0)
    tracemalloc.start()
    try:
        prep = prepare(inst, np.arange(n), PriorSource(BUILTIN_PRIORS["tsp1000"]))
        solve(prep.inst, prep.dm, prep.ranks, prep.heatmap, MctsParams(max_candidate_num=20), 0, Budget("iters", 20))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "entries" not in prep.dm.__dict__
    assert "inverse" not in prep.ranks.__dict__
    assert prep.ranks.width == RANK_TABLE_WIDTH
    # 12 MB at n=2000 (about 9.4 MB measured): one full int32 rank table
    # (16 MB) or the dense float64 distances (32 MB) would exceed it.
    assert peak <= 200 * n * RANK_TABLE_WIDTH


def test_oracle_reference_builds_no_dense_distances():
    """The Held-Karp reference reads one block of distance rows, not the cached n x n matrix."""
    prep = prepare(generate_uniform(12, 4), None, ZeroSource())
    assert prep.reference_length == exact_solve(prep.dm).length
    assert "entries" not in prep.dm.__dict__
