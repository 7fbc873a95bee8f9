"""The neighbor-rank prior: the rank distribution of edges in (near-)optimal tours.

For a tour, every city selects a successor in each traversal direction, so a
city's two tour neighbors yield two rank observations and an instance of n
cities yields 2n in total. Normalizing by 2n gives a per-instance probability
distribution over neighbor ranks; averaging across instances gives the
empirical rank distribution that the GT-Prior heatmap assigns to edges.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .instances import BLOCK_ELEMS, DistanceMatrix
from .tours import Tour, _check_permutation


@dataclass(frozen=True)
class PriorVector:
    """Edge probability by neighbor rank; ranks beyond the truncation are 0."""

    masses: np.ndarray  # masses[k-1] = probability at rank k

    def __post_init__(self) -> None:
        masses = np.array(self.masses, dtype=np.float64)
        if masses.ndim != 1 or masses.size == 0:
            raise ValueError("prior needs a non-empty 1-d mass vector")
        if not ((masses >= 0) & (masses <= 1)).all():  # also rejects NaN
            raise ValueError("prior masses must lie in [0, 1]")
        if masses.sum() > 1 + 1e-9:
            raise ValueError(f"prior masses sum to {masses.sum()}, exceeding 1")
        masses.setflags(write=False)
        object.__setattr__(self, "masses", masses)

    @property
    def truncation(self) -> int:
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


def build_gt_prior(dms: Sequence[DistanceMatrix], tours: Sequence[Tour]) -> PriorVector:
    """The mean of the tours' rank distributions, each normalized by its 2n selections.

    The result sums to 1 and is truncated at the largest rank observed
    anywhere in the corpus; a tour whose ranks stop short adds zeros beyond them.
    """
    if len(dms) != len(tours):
        raise ValueError(f"{len(dms)} distance matrices vs {len(tours)} tours")
    if not tours:
        raise ValueError("need at least one (distance matrix, tour) pair")
    dists = []
    for dm, tour in zip(dms, tours):
        counts = rank_counts(dm, tour.order)
        dists.append(counts[: np.flatnonzero(counts)[-1] + 1] / counts.sum())
    total = np.zeros(max(d.size for d in dists))
    for d in dists:
        total[: d.size] += d
    return PriorVector(masses=total / len(dists))


def cumulative_mass(prior: PriorVector, k: int) -> float:
    """Total mass at ranks 1..k."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return float(prior.masses[:k].sum())


def write_distribution_csv(prior: PriorVector, path) -> None:
    """Emit ``rank,mass,cumulative`` rows for external plotting."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["rank", "mass", "cumulative"])
        running = 0.0
        for k, mass in enumerate(prior.masses, start=1):
            running += float(mass)
            writer.writerow([k, f"{mass:.12g}", f"{running:.12g}"])
