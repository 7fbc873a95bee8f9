"""Neighbor-rank statistics of (near-)optimal tours.

For a tour, every city selects a successor in each traversal direction, so a
city's two tour neighbors yield two rank observations and an instance of n
cities yields 2n in total. Normalizing by 2n gives a per-instance probability
distribution over neighbor ranks; averaging across instances gives the
empirical rank distribution that underlies the GT-Prior heatmap.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .instances import RankTable
from .tours import InvalidTourError, Tour


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Probability mass per neighbor rank k = 1..support."""

    masses: np.ndarray  # shape (support,), float64; masses[k-1] = P(rank k)
    sample_count: int

    def __post_init__(self) -> None:
        masses = np.array(self.masses, dtype=np.float64)
        if masses.ndim != 1 or masses.size == 0:
            raise ValueError("masses must be a non-empty 1-d array")
        if (masses < 0).any():
            raise ValueError("masses must be non-negative")
        if abs(masses.sum() - 1.0) > 1e-9:
            raise ValueError(f"masses must sum to 1, got {masses.sum()}")
        masses.setflags(write=False)
        object.__setattr__(self, "masses", masses)

    @property
    def support(self) -> int:
        return self.masses.shape[0]


def rank_counts(ranks: RankTable, order: np.ndarray) -> np.ndarray:
    """Count successor ranks over both traversal directions of a tour (ValueError beyond a truncated table)."""
    n = ranks.n
    order = np.asarray(order)
    if order.shape != (n,):
        raise InvalidTourError(f"tour size {order.shape} does not match n={n}")
    succ = np.roll(order, -1)
    found = np.concatenate((ranks.inverse[order, succ], ranks.inverse[succ, order]))
    if not found.all():
        raise ValueError(f"a tour edge lies beyond the {ranks.width} neighbors of the rank table")
    return np.bincount(found - 1, minlength=n - 1).astype(np.int64)


def per_instance_distribution(ranks: RankTable, tour: Tour) -> EmpiricalDistribution:
    """Rank distribution of one tour, normalized by its 2n selections."""
    counts = rank_counts(ranks, tour.order)
    support = int(np.flatnonzero(counts)[-1]) + 1
    masses = counts[:support] / counts.sum()
    return EmpiricalDistribution(masses=masses, sample_count=1)


def aggregate(dists: Sequence[EmpiricalDistribution]) -> EmpiricalDistribution:
    """Arithmetic mean of distributions, padded to the largest support."""
    if not dists:
        raise ValueError("aggregate needs at least one distribution")
    support = max(d.support for d in dists)
    total = np.zeros(support)
    for d in dists:
        total[: d.support] += d.masses
    return EmpiricalDistribution(masses=total / len(dists), sample_count=len(dists))


def cumulative_mass(dist: EmpiricalDistribution, k: int) -> float:
    """Total mass at ranks 1..k."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return float(dist.masses[: min(k, dist.support)].sum())


def write_distribution_csv(dist: EmpiricalDistribution, path) -> None:
    """Emit ``rank,mass,cumulative`` rows for external plotting."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["rank", "mass", "cumulative"])
        running = 0.0
        for k, mass in enumerate(dist.masses, start=1):
            running += float(mass)
            writer.writerow([k, f"{mass:.12g}", f"{running:.12g}"])
