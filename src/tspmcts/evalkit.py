"""Optimality-gap evaluation and batch benchmarking."""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import chain, count, repeat
from typing import Callable, Iterable, Mapping, Optional

import numpy as np

from .heatmaps import BUILTIN_PRIORS, Heatmap, PriorSource
from .instances import DistanceMatrix, Instance, RankTable, distance_matrix, nearest_neighbor_ranks
from .mcts import Budget, MctsParams, solve
from .tours import EXACT_SOLVE_MAX_N, Tour, exact_solve, make_tour

RESULT_CSV_HEADER = ["instance", "config", "heatmap", "length", "ref_length", "gap_pct", "time_s", "seed", "sims",
                     "restarts", "accepts"]

#: Builds a heatmap for one instance; receives (instance, dm, ranks).
HeatmapSource = Callable[[Instance, DistanceMatrix, RankTable], Heatmap]

#: Least width of the rank table ``prepare`` builds: the widest builtin prior.
RANK_TABLE_WIDTH = max(prior.truncation for prior in BUILTIN_PRIORS.values())


@dataclass(frozen=True)
class GapReport:
    instance_id: str
    solver_length: float
    reference_length: float
    gap_percent: float
    wall_time: float
    config_id: str = "default"
    heatmap_id: str = ""
    seed: int = 0
    simulations: int = 0
    restarts: int = 0
    moves_accepted: int = 0


@dataclass(frozen=True)
class ResultTable:
    rows: tuple[GapReport, ...]

    @property
    def mean_gap(self) -> float:
        if not self.rows:
            return math.nan
        return float(np.mean([r.gap_percent for r in self.rows]))

    @property
    def min_gap(self) -> float:
        return min((r.gap_percent for r in self.rows), default=math.nan)

    @property
    def max_gap(self) -> float:
        return max((r.gap_percent for r in self.rows), default=math.nan)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(RESULT_CSV_HEADER)
            for r in self.rows:
                writer.writerow([
                    r.instance_id, r.config_id, r.heatmap_id, f"{r.solver_length:.9f}", f"{r.reference_length:.9f}",
                    f"{r.gap_percent:.9f}", f"{r.wall_time:.4f}", r.seed, r.simulations, r.restarts, r.moves_accepted,
                ])


def optimality_gap(length: float, reference: float) -> float:
    """(length / reference - 1) * 100."""
    if reference <= 0:
        raise ValueError(f"reference length must be positive, got {reference}")
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    return (length / reference - 1.0) * 100.0


def reference_tour(inst: Instance, dm: DistanceMatrix, order: Optional[np.ndarray]) -> Tour:
    """The tour of ``order`` (an instance's tour file), or without one the exact oracle's (n <= 18)."""
    if order is not None:
        return make_tour(order, dm)
    if inst.n > EXACT_SOLVE_MAX_N:
        raise ValueError(f"{inst.id}: no reference tour and n={inst.n} exceeds the exact oracle cap")
    return exact_solve(dm)


@dataclass(frozen=True)
class Prepared:
    """One instance's solver inputs, built once and reused by every config."""

    inst: Instance
    dm: DistanceMatrix
    ranks: RankTable
    reference_length: float
    heatmap: Heatmap


def prepare(inst: Instance, reference_order: Optional[np.ndarray], heatmap_source: HeatmapSource) -> Prepared:
    """Distances, ranks, reference length (None: the exact oracle's) and heatmap of one instance.

    The one rank table is as wide as the heatmap reads: ``RANK_TABLE_WIDTH``,
    or a wider prior's truncation. O(n * width) memory: distances are computed
    from the coordinates.
    """
    dm = distance_matrix(inst)
    width = RANK_TABLE_WIDTH
    if isinstance(heatmap_source, PriorSource):  # its heatmap reads the table up to the prior's truncation
        width = max(width, heatmap_source.prior.truncation)
    ranks = nearest_neighbor_ranks(dm, width)
    ref_len = reference_tour(inst, dm, reference_order).length
    if not ref_len > 0:
        raise ValueError(f"{inst.id}: reference length must be positive, got {ref_len}")
    return Prepared(inst, dm, ranks, ref_len, heatmap_source(inst, dm, ranks))


def _evaluate_one(task, configs, budget, seed, heatmap_id) -> list[GapReport]:
    prep = prepare(*task)
    reports = []
    for config_id, params in configs.items():
        result = solve(prep.inst, prep.dm, prep.ranks, prep.heatmap, params, seed, budget)
        length = result.best_tour.length
        reports.append(GapReport(
            instance_id=prep.inst.id, solver_length=length, reference_length=prep.reference_length,
            gap_percent=optimality_gap(length, prep.reference_length), wall_time=result.wall_time,
            config_id=config_id, heatmap_id=heatmap_id, seed=seed,
            simulations=result.simulations, restarts=result.restarts, moves_accepted=result.moves_accepted,
        ))
    return reports


def run_benchmark(tasks: Iterable[tuple], configs: Mapping[str, MctsParams], budget: Budget, seed: int = 0,
                  jobs: int = 1, heatmap_id: str = "") -> ResultTable:
    """Solve every task's instance under every config; the gaps come config by config, in input order.

    A task is ``prepare``'s arguments ``(inst, reference_order, heatmap_source)``, and
    ``configs`` maps config ids to parameters. Each task is prepared once, in the process that
    solves it, solved under every config in order, then freed. ``jobs > 1`` runs the tasks in one
    pool of at most one worker per task; the first task that fails cancels those not yet started.
    Instance i is solved with seed ``seed + i`` under every config, so results do not depend on scheduling.
    """
    if jobs > 1:  # a fork pool starts all its workers at once: no more workers than tasks, and no pool for one
        tasks = list(tasks)
        jobs = min(jobs, len(tasks))
    args = (tasks, repeat(configs), repeat(budget), count(seed), repeat(heatmap_id))
    if jobs <= 1:
        # map() keeps no reference to a solved instance, so each preparation is freed before the next.
        per_task = list(map(_evaluate_one, *args))
    else:
        # Imported here: the process pool loads multiprocessing, about 1.5 MB no serial run needs.
        from concurrent.futures import ProcessPoolExecutor

        # Executor.map cancels the pending tasks as soon as one raises.
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_task = list(pool.map(_evaluate_one, *args))
    return ResultTable(rows=tuple(chain.from_iterable(zip(*per_task))))
