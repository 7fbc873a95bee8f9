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

from .instances import BLOCK_ELEMS, DistanceMatrix
from .tours import Tour, _check_permutation


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


def rank_counts(dm: DistanceMatrix, order: np.ndarray) -> np.ndarray:
    """Count successor ranks over both traversal directions of a tour.

    The rank of j from i is one plus the number of other cities ahead of j
    under (distance, index), the order of the rank table; it is counted for
    each city's tour successor and predecessor from blocks of ``BLOCK_ELEMS``
    distances, so no row is sorted and no table is kept.
    """
    n = dm.n
    order = _check_permutation(np.asarray(order), n)
    succ = np.empty(n, dtype=np.int64)
    succ[order] = np.roll(order, -1)
    pred = np.empty(n, dtype=np.int64)
    pred[order] = np.roll(order, 1)
    counts = np.zeros(n - 1, dtype=np.int64)
    cities = np.arange(n)
    step = max(1, BLOCK_ELEMS // n)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        dist = dm.rows(lo, hi)
        block = np.arange(hi - lo)
        dist[block, cities[lo:hi]] = -1  # the own city is ahead of all, so it stands for the rank's 1
        for nbr in (succ[lo:hi], pred[lo:hi]):
            d = dist[block, nbr][:, None]
            ahead = ((dist < d) | (dist == d) & (cities < nbr[:, None])).sum(axis=1)
            counts += np.bincount(ahead - 1, minlength=n - 1)
    return counts


def per_instance_distribution(dm: DistanceMatrix, tour: Tour) -> EmpiricalDistribution:
    """Rank distribution of one tour, normalized by its 2n selections."""
    counts = rank_counts(dm, tour.order)
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
