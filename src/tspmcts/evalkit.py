"""Optimality-gap evaluation and batch benchmarking."""
from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .heatmaps import Heatmap
from .instances import DistanceMatrix, Instance, Metric, RankTable, distance_matrix, nearest_neighbor_ranks
from .mcts import Budget, MctsParams, solve
from .tours import EXACT_SOLVE_MAX_N, Tour, exact_solve, tour_length

RESULT_CSV_HEADER = ["instance", "config", "heatmap", "length", "ref_length", "gap_pct", "time_s", "seed"]

#: Builds a heatmap for one instance; receives (instance, dm, ranks).
HeatmapSource = Callable[[Instance, DistanceMatrix, RankTable], Heatmap]


class MissingReferenceError(ValueError):
    """Raised when an instance lacks a reference tour and is too big to solve exactly."""


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
                    r.instance_id, r.config_id, r.heatmap_id,
                    f"{r.solver_length:.9f}", f"{r.reference_length:.9f}",
                    f"{r.gap_percent:.9f}", f"{r.wall_time:.4f}", r.seed,
                ])


def optimality_gap(length: float, reference: float) -> float:
    """(length / reference - 1) * 100."""
    if reference <= 0:
        raise ValueError(f"reference length must be positive, got {reference}")
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    return (length / reference - 1.0) * 100.0


def improvement(default_gap: float, tuned_gap: float) -> float:
    """Gap reduction in percentage points."""
    return default_gap - tuned_gap


def reference_length_for(
    inst: Instance,
    dm: DistanceMatrix,
    reference_tour: Optional[np.ndarray],
) -> float:
    """Length of the supplied reference tour, or of the exact oracle tour."""
    if reference_tour is not None:
        return tour_length(reference_tour, dm)
    if inst.n <= EXACT_SOLVE_MAX_N:
        return exact_solve(dm).length
    raise MissingReferenceError(
        f"{inst.id}: no reference tour and n={inst.n} exceeds the exact oracle cap"
    )


def _evaluate_one(args) -> GapReport:
    inst, reference_tour, heatmap_source, params, budget, seed, config_id, heatmap_id, metric = args
    dm = distance_matrix(inst, metric)
    ranks = nearest_neighbor_ranks(dm)
    ref_len = reference_length_for(inst, dm, reference_tour)
    hm = heatmap_source(inst, dm, ranks)
    result = solve(inst, dm, ranks, hm, params, seed, budget)
    gap = optimality_gap(result.best_tour.length, ref_len)
    return GapReport(
        instance_id=inst.id,
        solver_length=result.best_tour.length,
        reference_length=ref_len,
        gap_percent=gap,
        wall_time=result.wall_time,
        config_id=config_id,
        heatmap_id=heatmap_id,
        seed=seed,
    )


def run_benchmark(
    instances: Sequence[Instance],
    reference_tours: Sequence[Optional[np.ndarray]] | None,
    heatmap_source: HeatmapSource,
    params: MctsParams,
    budget: Budget,
    seed: int = 0,
    jobs: int = 1,
    config_id: str = "default",
    heatmap_id: str = "",
    metric: Metric = Metric.EUC2D_REAL,
) -> ResultTable:
    """Solve every instance and report gaps, in input order.

    ``reference_tours`` aligns with ``instances``; None entries fall back to
    the exact oracle (n <= 18 only). Each instance is solved with seed
    ``seed + index`` so results do not depend on scheduling.
    """
    if reference_tours is None:
        reference_tours = [None] * len(instances)
    if len(reference_tours) != len(instances):
        raise ValueError(f"{len(instances)} instances vs {len(reference_tours)} reference tours")
    tasks = [
        (inst, ref, heatmap_source, params, budget, seed + idx, config_id, heatmap_id, metric)
        for idx, (inst, ref) in enumerate(zip(instances, reference_tours))
    ]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_evaluate_one, tasks))
    else:
        rows = [_evaluate_one(t) for t in tasks]
    return ResultTable(rows=tuple(rows))
