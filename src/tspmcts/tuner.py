"""Grid-search tuning and exact Shapley attribution of hyperparameters.

The attribution treats the tuned hyperparameters as players in a cooperative
game. For a coalition S and a reference configuration c, the value v(S) is
the mean gap over all grid configurations that agree with c on S (the other
parameters are marginalized uniformly over the grid). With six parameters the
2^6 coalitions are enumerated exactly, so the usual Shapley axioms
(efficiency, symmetry, dummy) hold to machine precision.
"""
from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .evalkit import Budget, ResultTable, run_benchmark
from .mcts import MctsParams


def boolean(text: str) -> bool:
    """Strict, case-insensitive boolean: 1/true/yes or 0/false/no; anything else is a ValueError."""
    word = text.strip().lower()
    if word in ("1", "true", "yes", "0", "false", "no"):
        return word in ("1", "true", "yes")
    raise ValueError(f"{text!r} is not a boolean (1/true/yes or 0/false/no)")


#: Value parser of each solver parameter, in grid order, for solve's flags and tune's grid flags.
FIELD_PARSERS = {"alpha": float, "beta": float, "max_depth": int, "max_candidate_num": int, "param_h": int,
                 "use_heatmap": boolean}
PARAM_FIELDS = tuple(FIELD_PARSERS)
#: ``solve``'s flag for each solver parameter, ``--max-depth`` for ``max_depth``.
FIELD_FLAGS = {name: "--" + name.replace("_", "-") for name in PARAM_FIELDS}

#: Default configuration the grid values are compared against.
DEFAULT_PARAMS = MctsParams()


@dataclass(frozen=True)
class SearchSpace:
    """Finite value lists per hyperparameter, in canonical field order."""

    alpha: tuple = (0.0, 1.0, 2.0)
    beta: tuple = (10.0, 100.0, 150.0)
    max_depth: tuple = (10, 50, 100, 200)
    max_candidate_num: tuple = (5, 20, 50, 1000)
    param_h: tuple = (2, 5, 10)
    use_heatmap: tuple = (True, False)

    def __post_init__(self) -> None:
        for name in PARAM_FIELDS:
            values = getattr(self, name)
            if len(values) == 0:
                raise ValueError(f"search space for {name} is empty")
            if len(set(values)) != len(values):
                raise ValueError(f"search space for {name} has duplicates")

    @property
    def shape(self) -> tuple[int, ...]:
        """Value count per field, in canonical field order."""
        return tuple(len(getattr(self, name)) for name in PARAM_FIELDS)

    @property
    def size(self) -> int:
        return math.prod(self.shape)


def grid_configs(space: SearchSpace) -> list[MctsParams]:
    """Full Cartesian product, lexicographic in canonical field order."""
    value_lists = [getattr(space, name) for name in PARAM_FIELDS]
    return [MctsParams(**dict(zip(PARAM_FIELDS, combo))) for combo in itertools.product(*value_lists)]


def config_key(params: MctsParams) -> tuple:
    return tuple(getattr(params, name) for name in PARAM_FIELDS)


def config_id(params: MctsParams) -> str:
    alpha, beta, depth, mcn, h, uh = config_key(params)
    return f"a{alpha:g}-b{beta:g}-d{depth}-c{mcn}-h{h}-u{int(uh)}"


@dataclass(frozen=True)
class TuningReport:
    configs: tuple[MctsParams, ...]
    mean_gaps: tuple[float, ...]
    best_config: MctsParams
    default_gap: Optional[float]
    #: Every config's attribution (field -> phi), in ``configs`` order.
    shapley: tuple[dict[str, float], ...]

    @property
    def best_gap(self) -> float:
        return min(self.mean_gaps)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["config_id", "alpha", "beta", "max_depth", "mcn", "param_h", "use_heatmap", "mean_gap"])
            for cfg, gap in zip(self.configs, self.mean_gaps):
                a, b, d, c, h, u = config_key(cfg)
                writer.writerow([config_id(cfg), a, b, d, c, h, int(u), f"{gap:.9f}"])

    def write_shapley_csv(self, path) -> None:
        """Emit ``config_id,param,value,phi`` rows for every grid config."""
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["config_id", "param", "value", "phi"])
            for cfg, phi in zip(self.configs, self.shapley):
                cid = config_id(cfg)
                for name in PARAM_FIELDS:
                    writer.writerow([cid, name, getattr(cfg, name), f"{phi[name]:.12g}"])


def evaluate_grid(space: SearchSpace, tasks: Iterable[tuple], budget: Budget, seed: int = 0,
                  jobs: int = 1) -> list[float]:
    """Each grid config's mean gap over ``tasks``, in grid order, from one ``run_benchmark`` call:
    each task, ``prepare``'s arguments, is prepared once and solved under every config."""
    configs = {config_id(cfg): cfg for cfg in grid_configs(space)}
    if len(configs) < space.size:
        raise ValueError("grid values too close to tell apart in config ids (6 significant digits)")
    rows = run_benchmark(tasks, configs, budget, seed=seed, jobs=jobs).rows  # config by config
    return [ResultTable(tuple(group)).mean_gap for _, group in itertools.groupby(rows, lambda row: row.config_id)]


def tune(space: SearchSpace, gaps: Sequence[float]) -> TuningReport:
    """The report of a grid's mean gaps, in grid order: the best configuration and every config's attribution.

    Ties are broken by grid order (lexicographic in the canonical field order).
    """
    configs = grid_configs(space)
    best_idx = min(range(len(configs)), key=gaps.__getitem__)
    default_key = config_key(DEFAULT_PARAMS)
    default_idx = next((i for i, c in enumerate(configs) if config_key(c) == default_key), None)
    return TuningReport(
        configs=tuple(configs),
        mean_gaps=tuple(gaps),
        best_config=configs[best_idx],
        default_gap=None if default_idx is None else gaps[default_idx],
        shapley=tuple(shapley_for_all_configs(space, gaps)),
    )


def _attributions(space: SearchSpace, gaps: Sequence[float]) -> np.ndarray:
    """Exact Shapley values: one row per grid config (grid_configs order), one column per field.

    v(S) of every config is a row mean of the gap grid (one axis per field) copied
    with S's axes first: a row holds the configs that agree on S, in grid order,
    and a contiguous row is summed pairwise exactly as a 1-D mean would sum it.
    """
    shape = space.shape
    grid = np.asarray(gaps, dtype=np.float64)
    if grid.shape != (space.size,):
        raise ValueError(f"grid has {space.size} configs, got {len(gaps)} gaps")
    if not np.isfinite(grid).all():
        raise ValueError("grid results contain non-finite gaps")
    grid = grid.reshape(shape)
    nf = len(shape)
    values = []
    for mask in range(1 << nf):
        inside = [f for f in range(nf) if mask >> f & 1]
        rows = np.ascontiguousarray(grid.transpose(inside + [f for f in range(nf) if f not in inside]))
        means = rows.reshape(math.prod(shape[f] for f in inside), -1).mean(axis=1)
        values.append(means.reshape([size if f in inside else 1 for f, size in enumerate(shape)]))
    phi = np.zeros(shape + (nf,))
    for f in range(nf):
        for mask in range(1 << nf):
            if not mask >> f & 1:
                s = bin(mask).count("1")
                weight = math.factorial(s) * math.factorial(nf - s - 1) / math.factorial(nf)
                phi[..., f] += weight * (values[mask | 1 << f] - values[mask])
    return phi.reshape(-1, nf)


def shapley_importance(space: SearchSpace, gaps: Sequence[float], config: MctsParams) -> dict[str, float]:
    """Exact Shapley attribution of ``config``'s gap versus the grid mean.

    Requires gaps for the full grid in grid_configs order. Efficiency holds:
    the attributions sum to config's gap minus the grand mean.
    """
    index = np.ravel_multi_index([getattr(space, f).index(getattr(config, f)) for f in PARAM_FIELDS], space.shape)
    return dict(zip(PARAM_FIELDS, _attributions(space, gaps)[index].tolist()))


def shapley_for_all_configs(space: SearchSpace, gaps: Sequence[float]) -> list[dict[str, float]]:
    """Attributions for every grid config, in grid_configs order."""
    return [dict(zip(PARAM_FIELDS, phi)) for phi in _attributions(space, gaps).tolist()]


def write_params_file(params: MctsParams, path) -> None:
    """A solver config as ``solve``'s flags, one ``--name=value`` line per parameter: ``solve @FILE`` reads it."""
    with open(path, "w") as f:
        for name, flag in FIELD_FLAGS.items():
            f.write(f"{flag}={getattr(params, name)}\n")
