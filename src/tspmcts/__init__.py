"""Heatmap-guided MCTS toolkit for the travelling salesman problem."""

from .instances import (
    DistanceMatrix,
    Instance,
    Metric,
    RankTable,
    StructuredParams,
    distance_matrix,
    generate_structured,
    generate_uniform,
    nearest_neighbor_ranks,
    parse_tsplib,
)
from .tours import Tour, SolveResult, exact_solve, tour_length, two_opt
from .heatmaps import (
    BUILTIN_PRIORS,
    Heatmap,
    PriorVector,
    build_gt_prior,
    prior_to_heatmap,
    softdist_heatmap,
    sparsify_topk,
    zero_heatmap,
)
from .knn_stats import EmpiricalDistribution, aggregate, cumulative_mass, per_instance_distribution
from .mcts import Budget, MctsParams, MctsState, init_state, sample_initial_tour, solve
from .evalkit import GapReport, Prepared, ResultTable, improvement, optimality_gap, prepare, run_benchmark
from .tuner import SearchSpace, TuningReport, grid_configs, shapley_importance, tune

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_PRIORS",
    "Budget",
    "DistanceMatrix",
    "EmpiricalDistribution",
    "GapReport",
    "Heatmap",
    "Instance",
    "MctsParams",
    "MctsState",
    "Metric",
    "Prepared",
    "PriorVector",
    "RankTable",
    "ResultTable",
    "SearchSpace",
    "SolveResult",
    "StructuredParams",
    "Tour",
    "TuningReport",
    "aggregate",
    "build_gt_prior",
    "cumulative_mass",
    "distance_matrix",
    "exact_solve",
    "generate_structured",
    "generate_uniform",
    "grid_configs",
    "improvement",
    "init_state",
    "nearest_neighbor_ranks",
    "optimality_gap",
    "parse_tsplib",
    "per_instance_distribution",
    "prepare",
    "prior_to_heatmap",
    "run_benchmark",
    "sample_initial_tour",
    "shapley_importance",
    "softdist_heatmap",
    "solve",
    "sparsify_topk",
    "tour_length",
    "tune",
    "two_opt",
    "zero_heatmap",
]
