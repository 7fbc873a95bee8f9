import concurrent.futures
import dataclasses
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from tspmcts import evalkit, instances, mcts
from tspmcts.evalkit import (
    RANK_TABLE_WIDTH,
    Budget,
    MissingReferenceError,
    ResultTable,
    optimality_gap,
    prepare,
    reference_tour,
    run_benchmark,
)
from tspmcts.heatmaps import BUILTIN_PRIORS, PriorSource, PriorVector, ZeroSource
from tspmcts.instances import generate_uniform, nearest_neighbor_ranks
from tspmcts.mcts import MctsParams, init_state, solve
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
        assert reference_tour(inst, dm, None).length == exact_solve(dm).length

    def test_supplied_tour_wins(self):
        inst = generate_uniform(9, 17)
        dm, _ = dm_and_ranks(inst)
        order = np.arange(9)
        from tspmcts.tours import tour_length

        assert reference_tour(inst, dm, order).length == tour_length(order, dm)

    def test_missing_reference_for_large_instance(self):
        inst = generate_uniform(19, 0)
        dm, _ = dm_and_ranks(inst)
        with pytest.raises(MissingReferenceError):
            reference_tour(inst, dm, None)


@pytest.fixture(scope="module")
def small_set():
    return [generate_uniform(10, 900 + i) for i in range(4)]


def zero_tasks(instances, reference_tours=None):
    """``prepare``'s arguments for each instance, with the Zero heatmap."""
    if reference_tours is None:
        reference_tours = [None] * len(instances)
    return [(inst, ref, ZeroSource()) for inst, ref in zip(instances, reference_tours, strict=True)]


def one_config(params):
    return {"default": params}


class TestRunBenchmark:
    def test_rows_in_instance_order(self, small_set):
        table = run_benchmark(
            zero_tasks(small_set), one_config(MctsParams(use_heatmap=False)),
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

        kwargs = dict(configs=one_config(MctsParams(use_heatmap=False)), budget=Budget("iters", 300), seed=5)
        serial = run_benchmark(zero_tasks(small_set), **kwargs, jobs=1)
        again = run_benchmark(zero_tasks(small_set), **kwargs, jobs=1)
        parallel = run_benchmark(zero_tasks(small_set), **kwargs, jobs=3)
        assert fingerprint(serial) == fingerprint(again)
        assert fingerprint(serial) == fingerprint(parallel)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_instances_are_prepared_where_they_are_solved(self, monkeypatch, jobs):
        """Tasks given as prepare()'s arguments: with jobs=2 the main process prepares
        none of them (the workers do); with jobs=1 one preparation is alive at a time."""
        refs = []
        peak = 0

        def tracked(*args):
            nonlocal peak
            prep = prepare(*args)
            refs.append(weakref.ref(prep))
            peak = max(peak, sum(r() is not None for r in refs))
            return prep

        monkeypatch.setattr(evalkit, "prepare", tracked)
        tasks = [(generate_uniform(30, 700 + i), np.arange(30), ZeroSource()) for i in range(8)]
        table = run_benchmark(tasks, one_config(MctsParams(use_heatmap=False)), Budget("iters", 100), jobs=jobs)
        assert [r.instance_id for r in table.rows] == [inst.id for inst, *_ in tasks]
        assert len(refs) == (8 if jobs == 1 else 0)
        assert peak == (1 if jobs == 1 else 0)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_task_prepared_once_for_every_config(self, small_set, monkeypatch, jobs):
        """Rows come config by config, in input order; each config's rows are those of a run with that
        config alone, and each instance is prepared once for all of them (counted in this process)."""
        configs = {"a": MctsParams(use_heatmap=False), "b": MctsParams(alpha=0.0, use_heatmap=False)}
        kwargs = dict(budget=Budget("iters", 100), seed=4, jobs=jobs)
        untimed = lambda rows: [dataclasses.replace(r, wall_time=0.0) for r in rows]
        alone = {cid: untimed(run_benchmark(zero_tasks(small_set), {cid: p}, **kwargs).rows) for cid, p in configs.items()}
        prepared = []
        monkeypatch.setattr(evalkit, "prepare", lambda *task: prepared.append(task) or prepare(*task))
        table = run_benchmark(zero_tasks(small_set), configs, **kwargs)
        assert [(r.config_id, r.instance_id) for r in table.rows] == [(c, i.id) for c in configs for i in small_set]
        assert untimed(table.rows) == alone["a"] + alone["b"]
        assert len(prepared) == (len(small_set) if jobs == 1 else 0)

    def test_pool_starts_no_more_workers_than_tasks(self, small_set, monkeypatch):
        """A fork pool starts all its workers at once: jobs=8 on two tasks asks for two workers,
        and on one task for no pool; the rows are those of jobs=1."""
        asked = []

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                asked.append(max_workers)
                super().__init__(max_workers=min(max_workers, 2), **kwargs)  # whatever is asked, start two at most

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        tasks = zero_tasks(small_set[:2])
        kwargs = dict(configs=one_config(MctsParams(use_heatmap=False)), budget=Budget("iters", 100), seed=3)
        untimed = lambda table: [dataclasses.replace(r, wall_time=0.0) for r in table.rows]
        assert untimed(run_benchmark(tasks, **kwargs, jobs=8)) == untimed(run_benchmark(tasks, **kwargs, jobs=1))
        assert asked == [2]
        assert untimed(run_benchmark(tasks[:1], **kwargs, jobs=8)) == untimed(run_benchmark(tasks[:1], **kwargs))
        assert asked == [2]

    def test_mean_matches_rows(self, small_set):
        table = run_benchmark(
            zero_tasks(small_set), one_config(MctsParams(use_heatmap=False)),
            Budget("iters", 200), seed=2,
        )
        assert table.mean_gap == pytest.approx(
            sum(r.gap_percent for r in table.rows) / len(table.rows), rel=1e-12
        )
        assert table.min_gap == min(r.gap_percent for r in table.rows)
        assert table.max_gap == max(r.gap_percent for r in table.rows)

    def test_empty_table(self):
        table = run_benchmark(zero_tasks([]), one_config(MctsParams()), Budget("iters", 10))
        assert table.rows == ()
        assert math.isnan(table.mean_gap)

    def test_reference_alignment_checked(self, small_set):
        with pytest.raises(ValueError):
            run_benchmark(zero_tasks(small_set, [None]), one_config(MctsParams()), Budget("iters", 10))

    def test_csv_schema(self, small_set, tmp_path):
        table = run_benchmark(
            zero_tasks(small_set[:2]), one_config(MctsParams(use_heatmap=False)),
            Budget("iters", 100), heatmap_id="zero",
        )
        path = tmp_path / "out.csv"
        table.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "instance,config,heatmap,length,ref_length,gap_pct,time_s,seed,sims,restarts,accepts"
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


def test_a_wide_prior_gets_the_one_rank_table(monkeypatch):
    """A prior wider than ``RANK_TABLE_WIDTH`` gets one rank table, as wide as the prior:
    ``prepare`` ranks once, the heatmap source ranks nothing, and at mcn <= width
    ``init_state`` ranks no row against all cities. Its state is byte-identical to the
    one built from the 30-wide table, whose rows ``init_state`` must rank in full."""
    n, width = 2000, RANK_TABLE_WIDTH + 10
    masses = 1.0 / np.arange(1, width + 1)
    prior = PriorVector(masses / masses.sum())
    calls = {"prepare": 0, "rankings": 0, "full_rows": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(evalkit, "nearest_neighbor_ranks", counted(evalkit.nearest_neighbor_ranks, "prepare"))
    # Every truncated ranking, whoever asks for it, starts from the grid.
    monkeypatch.setattr(instances, "_grid_ranks", counted(instances._grid_ranks, "rankings"))
    monkeypatch.setattr(mcts, "nearest_in_rows", counted(mcts.nearest_in_rows, "full_rows"))
    prep = prepare(generate_uniform(n, 7), np.arange(n), PriorSource(prior))
    assert prep.ranks.width == width
    params = MctsParams(max_candidate_num=20)
    state = init_state(prep.inst, prep.dm, prep.ranks, prep.heatmap, params, 0)
    assert calls == {"prepare": 1, "rankings": 1, "full_rows": 0}
    narrow = init_state(prep.inst, prep.dm, nearest_neighbor_ranks(prep.dm, RANK_TABLE_WIDTH), prep.heatmap, params, 0)
    assert calls["full_rows"] > 0
    for name in ("candidates", "cand_exp", "weights", "counts", "qinv", "omega"):
        ours, theirs = getattr(state, name), getattr(narrow, name)
        assert (ours.dtype, ours.shape, ours.tobytes()) == (theirs.dtype, theirs.shape, theirs.tobytes()), name


def test_oracle_reference_builds_no_dense_distances():
    """The Held-Karp reference reads one block of distance rows, not the cached n x n matrix."""
    prep = prepare(generate_uniform(12, 4), None, ZeroSource())
    assert prep.reference_length == exact_solve(prep.dm).length
    assert "entries" not in prep.dm.__dict__
