"""Heatmap-guided MCTS toolkit for the travelling salesman problem."""

from types import ModuleType as _ModuleType

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
    prior_to_heatmap,
    softdist_heatmap,
    zero_heatmap,
)
from .knn_stats import PriorVector, build_gt_prior, cumulative_mass
from .mcts import Budget, MctsParams, MctsState, init_state, sample_initial_tour, solve
from .evalkit import GapReport, Prepared, ResultTable, optimality_gap, prepare, run_benchmark
from .tuner import SearchSpace, TuningReport, grid_configs, shapley_importance, tune

__version__ = "0.1.0"

#: The public names are exactly the ones imported above.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
