"""Heatmap-guided MCTS toolkit for the travelling salesman problem.

The public names load on first use (PEP 562 ``__getattr__``), so ``import tspmcts``
loads no numpy: ``tspmcts.cli`` can set numpy's thread settings before it loads.
"""
__version__ = "0.1.0"


def _public_names() -> dict:
    from .instances import (DistanceMatrix, Instance, Metric, RankTable, distance_matrix, generate_structured,
                            generate_uniform, nearest_neighbor_ranks, parse_tsplib)
    from .tours import Tour, SolveResult, exact_solve, tour_length, two_opt
    from .heatmaps import (BUILTIN_PRIORS, Heatmap, PriorVector, build_gt_prior, cumulative_mass, prior_to_heatmap,
                           softdist_heatmap, zero_heatmap)
    from .mcts import Budget, MctsParams, MctsState, init_state, sample_initial_tour, solve
    from .evalkit import GapReport, Prepared, ResultTable, optimality_gap, prepare, run_benchmark
    from .tuner import SearchSpace, TuningReport, grid_configs, shapley_importance, tune

    return locals()


def __getattr__(name: str):
    """One of the public names (which ``__all__`` lists exactly), or a submodule their imports bound."""
    names = _public_names()
    globals().update(names, __all__=sorted(names))
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
