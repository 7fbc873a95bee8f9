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
from typing import Callable, Optional, Sequence

import numpy as np

from .evalkit import Budget, HeatmapSource, prepare, run_benchmark
from .instances import Instance, Metric
from .mcts import MctsParams


def boolean(text: str) -> bool:
    """Strict, case-insensitive boolean: 1/true/yes or 0/false/no; anything else is a ValueError."""
    word = text.strip().lower()
    if word in ("1", "true", "yes", "0", "false", "no"):
        return word in ("1", "true", "yes")
    raise ValueError(f"{text!r} is not a boolean (1/true/yes or 0/false/no)")


#: Value parser of each solver parameter, in grid order, for params files and tune's grid flags.
FIELD_PARSERS = {"alpha": float, "beta": float, "max_depth": int, "max_candidate_num": int, "param_h": int,
                 "use_heatmap": boolean}
PARAM_FIELDS = tuple(FIELD_PARSERS)

#: Default configuration the grid values are compared against.
DEFAULT_PARAMS = MctsParams()


class CoverageError(ValueError):
    """Raised when Shapley attribution is asked for an incomplete grid."""


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
    def size(self) -> int:
        return math.prod(len(getattr(self, name)) for name in PARAM_FIELDS)


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
    default_config: Optional[MctsParams]
    default_gap: Optional[float]
    shapley: Optional[dict[str, float]] = None

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


#: Evaluates one configuration on the tuning set; returns its mean gap.
ConfigEvaluator = Callable[[MctsParams], float]


def make_benchmark_evaluator(
    instances: Sequence[Instance],
    heatmap_source: HeatmapSource,
    budget: Budget,
    seed: int,
    jobs: int = 1,
    metric: Metric = Metric.EUC2D_REAL,
) -> ConfigEvaluator:
    """Prepare each instance once; the evaluator then only solves, per config."""
    prepared = [prepare(inst, None, heatmap_source, metric) for inst in instances]

    def evaluate(params: MctsParams) -> float:
        table = run_benchmark(prepared, params, budget, seed=seed, jobs=jobs, config_id=config_id(params))
        return table.mean_gap

    return evaluate


def tune(
    space: SearchSpace,
    evaluator: ConfigEvaluator,
    compute_shapley: bool = True,
    subset: int | None = None,
    subset_seed: int = 0,
) -> TuningReport:
    """Evaluate the grid and pick the best configuration.

    Ties are broken by grid order (lexicographic in the canonical field
    order). ``subset`` evaluates a random sample of configurations for smoke
    runs; Shapley attribution then has no full grid and is skipped.
    """
    configs = grid_configs(space)
    if subset is not None:
        if subset < 1:
            raise ValueError("subset must be >= 1")
        rng = np.random.default_rng(subset_seed)
        picks = sorted(rng.choice(len(configs), size=min(subset, len(configs)), replace=False))
        configs = [configs[i] for i in picks]
        compute_shapley = False
    gaps = [evaluator(cfg) for cfg in configs]
    best_idx = min(range(len(configs)), key=gaps.__getitem__)
    default_key = config_key(DEFAULT_PARAMS)
    default_idx = next((i for i, c in enumerate(configs) if config_key(c) == default_key), None)
    shapley = None
    if compute_shapley:
        shapley = shapley_importance(space, gaps, configs[best_idx])
    return TuningReport(
        configs=tuple(configs),
        mean_gaps=tuple(gaps),
        best_config=configs[best_idx],
        default_config=None if default_idx is None else configs[default_idx],
        default_gap=None if default_idx is None else gaps[default_idx],
        shapley=shapley,
    )


def _coalition_value_table(space: SearchSpace, gaps: Sequence[float]) -> list[dict[tuple, float]]:
    """Per-coalition lookup: projection of a config onto S -> mean gap."""
    configs = grid_configs(space)
    if len(gaps) != len(configs):
        raise CoverageError(f"grid has {len(configs)} configs, got {len(gaps)} gaps")
    gaps_arr = np.asarray(gaps, dtype=np.float64)
    if not np.isfinite(gaps_arr).all():
        raise CoverageError("grid results contain non-finite gaps")
    keys = [config_key(c) for c in configs]
    tables: list[dict[tuple, float]] = []
    for mask in range(64):
        members = [f for f in range(6) if mask >> f & 1]
        groups: dict[tuple, list[int]] = {}
        for row, key in enumerate(keys):
            proj = tuple(key[f] for f in members)
            groups.setdefault(proj, []).append(row)
        tables.append({proj: float(gaps_arr[rows].mean()) for proj, rows in groups.items()})
    return tables


def _shapley_from_tables(tables: list[dict[tuple, float]], key: tuple) -> dict[str, float]:
    nf = 6
    fact = [math.factorial(i) for i in range(nf + 1)]
    phi = dict.fromkeys(PARAM_FIELDS, 0.0)

    def value(mask: int) -> float:
        members = [f for f in range(nf) if mask >> f & 1]
        return tables[mask][tuple(key[f] for f in members)]

    values = [value(mask) for mask in range(64)]
    for f_idx, name in enumerate(PARAM_FIELDS):
        bit = 1 << f_idx
        total = 0.0
        for mask in range(64):
            if mask & bit:
                continue
            s = bin(mask).count("1")
            weight = fact[s] * fact[nf - s - 1] / fact[nf]
            total += weight * (values[mask | bit] - values[mask])
        phi[name] = total
    return phi


def shapley_importance(space: SearchSpace, gaps: Sequence[float], config: MctsParams) -> dict[str, float]:
    """Exact Shapley attribution of ``config``'s gap versus the grid mean.

    Requires gaps for the full grid in grid_configs order. Efficiency holds:
    the attributions sum to config's gap minus the grand mean.
    """
    tables = _coalition_value_table(space, gaps)
    return _shapley_from_tables(tables, config_key(config))


def shapley_for_all_configs(space: SearchSpace, gaps: Sequence[float]) -> list[dict[str, float]]:
    """Attributions for every grid config, sharing the coalition tables."""
    tables = _coalition_value_table(space, gaps)
    return [_shapley_from_tables(tables, config_key(c)) for c in grid_configs(space)]


def write_shapley_csv(space: SearchSpace, gaps: Sequence[float], path) -> None:
    """Emit ``config_id,param,value,phi`` rows for every grid config."""
    configs = grid_configs(space)
    attributions = shapley_for_all_configs(space, gaps)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["config_id", "param", "value", "phi"])
        for cfg, phi in zip(configs, attributions):
            cid = config_id(cfg)
            for name in PARAM_FIELDS:
                writer.writerow([cid, name, getattr(cfg, name), f"{phi[name]:.12g}"])


def write_params_file(params: MctsParams, path) -> None:
    """Solver config file: one ``key=value`` line per parameter."""
    with open(path, "w") as f:
        for name in PARAM_FIELDS:
            f.write(f"{name}={getattr(params, name)}\n")


def read_params_file(path) -> MctsParams:
    """Read a ``key=value`` config; the retired ``time_limit_factor`` key is ignored."""
    kwargs = {}
    with open(path) as f:
        for raw in f:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key == "time_limit_factor":
                continue
            if key not in FIELD_PARSERS:
                raise ValueError(f"unknown solver parameter: {key!r}")
            try:
                kwargs[key] = FIELD_PARSERS[key](value)
            except ValueError as exc:
                raise ValueError(f"{path}: {key}: {exc}") from None
    return MctsParams(**kwargs)
