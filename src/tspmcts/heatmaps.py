"""Edge-probability heatmaps, and the neighbor-rank prior behind the GT-Prior heatmap.

A heatmap stores, per city, a sparse row of (neighbor, probability) entries in compressed-row
arrays; absent entries are implicit zeros. The GT-Prior assigns each edge (i, j) the empirical
probability that optimal tours connect a city to its k-th nearest neighbor, where k is j's distance
rank from i: the rank distribution of each city's two tour neighbors, averaged over (near-)optimal
tours.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .instances import BLOCK_ELEMS, DistanceMatrix, Metric, RankTable, naming
from .tours import Tour, _check_permutation


@dataclass(frozen=True, eq=False)
class Heatmap:
    """Sparse per-city edge probabilities in compressed-row (CSR) form.

    Row i's entries are ``cols[indptr[i]:indptr[i + 1]]`` with ``probs``
    aligned, sorted by descending probability, ties by ascending neighbor.
    """

    n: int
    indptr: np.ndarray = field(repr=False)  # shape (n + 1,), int64
    cols: np.ndarray = field(repr=False)  # int32
    probs: np.ndarray = field(repr=False)  # float64

    def __post_init__(self) -> None:
        indptr = np.asarray(self.indptr, dtype=np.int64)
        cols = np.asarray(self.cols, dtype=np.int32)
        probs = np.asarray(self.probs, dtype=np.float64)
        if indptr.shape != (self.n + 1,) or indptr[0] != 0 or not cols.shape == probs.shape == (indptr[-1],):
            raise ValueError(
                f"row pointers do not fit n={self.n}, {cols.size} neighbors, {probs.size} probabilities"
            )
        if not (inside := (probs >= 0) & (probs <= 1)).all():  # NaN is outside too
            raise ValueError(f"heatmap probability {probs[~inside][0]} is outside [0, 1]")
        for name, arr in (("indptr", indptr), ("cols", cols), ("probs", probs)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Heatmap):
            return NotImplemented
        fields = ("indptr", "cols", "probs")
        return self.n == other.n and all(np.array_equal(getattr(self, f), getattr(other, f)) for f in fields)

    def row(self, i: int) -> tuple[tuple[int, float], ...]:
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return tuple(zip(self.cols[lo:hi].tolist(), self.probs[lo:hi].tolist()))


def row_pointers(lengths: np.ndarray) -> np.ndarray:
    """CSR row pointers (int64, one longer than ``lengths``) for rows of these lengths."""
    indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return indptr


def entry_rows(indptr: np.ndarray) -> np.ndarray:
    """The row index of every entry of a CSR layout."""
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


def _from_entries(n: int, row_of: np.ndarray, cols: np.ndarray, probs: np.ndarray) -> Heatmap:
    """CSR heatmap from unordered (row, neighbor, probability) entries."""
    order = np.lexsort((cols, -probs, row_of))
    return Heatmap(n=n, indptr=row_pointers(np.bincount(row_of, minlength=n)), cols=cols[order],
                   probs=probs[order])


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
    """Emit ``rank,mass,cumulative`` rows, the one prior file: each mass is written as the
    shortest text that reads back exactly, so ``load_prior`` returns the same prior."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["rank", "mass", "cumulative"])
        running = 0.0
        for k, mass in enumerate(prior.masses, start=1):
            running += float(mass)
            writer.writerow([k, repr(float(mass)), f"{running:.12g}"])


def load_prior(path) -> PriorVector:
    """The prior in a ``write_distribution_csv`` file, whose ``rank`` column runs 1, 2, ... in order. Any
    other file is a ValueError that names it, and the line at fault."""
    with open(path, newline="") as f, naming(path):
        reader, masses = csv.DictReader(f), []
        try:
            if not {"rank", "mass"} <= set(reader.fieldnames or ()):
                raise ValueError("expected the rank,mass,cumulative CSV that analyze-knn writes")
            for row in reader:
                with naming(f"line {reader.line_num}"):
                    rank, mass = row["rank"], row["mass"]
                    if rank != str(len(masses) + 1) or not 0 <= float(mass or "nan") <= 1:  # NaN is outside too
                        raise ValueError(f"expected rank {len(masses) + 1} with a mass in [0, 1], got {rank!r}, {mass!r}")
                    masses.append(float(mass))
        except csv.Error as exc:  # e.g. a field past the csv module's size limit, in the record after line_num
            raise ValueError(f"line {reader.line_num + 1}: {exc}") from None
        return PriorVector(masses=np.array(masses))  # rejects no rows, or masses summing past 1


#: Published rank-prior vectors, derived from Concorde/LKH-3 solutions of
#: uniform instances at the three reference scales.
BUILTIN_PRIORS: dict[str, PriorVector] = {
    "tsp500": PriorVector(np.array([
        4.40078125e-01, 2.56265625e-01, 1.32750000e-01, 7.32656250e-02,
        4.08125000e-02, 2.35937500e-02, 1.34062500e-02, 7.75000000e-03,
        4.48437500e-03, 2.73437500e-03, 1.78125000e-03, 1.18750000e-03,
        6.87500000e-04, 3.75000000e-04, 3.75000000e-04, 1.87500000e-04,
        7.81250000e-05, 1.56250000e-05, 4.68750000e-05, 1.56250000e-05,
        4.68750000e-05, 3.12500000e-05, 1.56250000e-05, 1.56250000e-05,
    ])),
    "tsp1000": PriorVector(np.array([
        4.37554687e-01, 2.54718750e-01, 1.37671875e-01, 7.41093750e-02,
        3.97890625e-02, 2.35156250e-02, 1.32265625e-02, 7.45312500e-03,
        4.73437500e-03, 3.00781250e-03, 1.59375000e-03, 1.08593750e-03,
        5.62500000e-04, 2.96875000e-04, 2.65625000e-04, 1.71875000e-04,
        1.01562500e-04, 4.68750000e-05, 1.56250000e-05, 3.12500000e-05,
        2.34375000e-05, 7.81250000e-06, 1.56250000e-05,
    ])),
    "tsp10000": PriorVector(np.array([
        4.4175625e-01, 2.5409375e-01, 1.3292500e-01, 7.1950000e-02,
        3.9518750e-02, 2.3750000e-02, 1.4143750e-02, 8.0937500e-03,
        4.9125000e-03, 3.3312500e-03, 1.8437500e-03, 1.1125000e-03,
        8.3750000e-04, 5.5625000e-04, 3.7500000e-04, 2.6250000e-04,
        1.8125000e-04, 8.7500000e-05, 6.8750000e-05, 5.0000000e-05,
        5.0000000e-05, 2.5000000e-05, 2.5000000e-05, 6.2500000e-06,
        1.2500000e-05, 6.2500000e-06, 6.2500000e-06, 6.2500000e-06,
        6.2500000e-06, 6.2500000e-06,
    ])),
}


def prior_to_heatmap(prior: PriorVector, ranks: RankTable) -> Heatmap:
    """Assign each edge the prior mass at its neighbor rank.

    Row i holds exactly its min(truncation, n-1) nearest neighbors; edges at
    ranks beyond the truncation stay implicit zeros.
    """
    n = ranks.n
    k = min(prior.truncation, n - 1)
    if ranks.width < k:
        raise ValueError(f"prior of truncation {prior.truncation} needs a rank table of width {k}, got {ranks.width}")
    cols = ranks.rows[:, :k]
    masses = prior.masses[:k]
    order = np.lexsort((cols, np.broadcast_to(-masses, (n, k))))  # per row, by (-p, j)
    return Heatmap(n=n, indptr=np.arange(0, n * k + 1, k, dtype=np.int64),
                   cols=np.take_along_axis(cols, order, axis=1).ravel(), probs=masses[order].ravel())


def zero_heatmap(n: int) -> Heatmap:
    """The non-informative heatmap: every edge probability is zero."""
    return Heatmap(n=n, indptr=np.zeros(n + 1, dtype=np.int64), cols=np.empty(0, dtype=np.int32),
                   probs=np.empty(0))


#: How many of its most probable entries each row of a ``softdist:TAU`` heatmap keeps.
SOFTDIST_KEEP = 24


def check_tau(tau: float) -> float:
    """``tau`` if it is finite and positive, as a softdist temperature must be."""
    if not 0 < tau < math.inf:  # also rejects NaN
        raise ValueError(f"softdist tau must be finite and positive, got {tau}")
    return tau


def softdist_heatmap(dm: DistanceMatrix, tau: float, k_keep: int) -> Heatmap:
    """Distance softmax rows: p_ij proportional to exp(-d_ij / tau).

    Each row is normalized over j != i, then truncated to its k_keep most
    probable entries without renormalizing. The exponential form with a
    temperature flag is this artifact's own definition of a distance-based
    heatmap; tau has no canonical default and is exposed as a CLI flag.
    Rows are computed in blocks of about ``BLOCK_ELEMS`` entries. A tau that
    is not finite, or so small that d / tau can overflow, is rejected first.
    """
    check_tau(tau)
    (x0, y0), (x1, y1) = dm.points.min(axis=0).tolist(), dm.points.max(axis=0).tolist()
    # The bounding box's diagonal bounds every distance, with slack for rounding and for nint's +0.5.
    longest = math.hypot(x1 - x0, y1 - y0) * (1 + 1e-12) + (0.5 if dm.metric is Metric.EUC2D_INT else 0.0)
    if longest / tau == math.inf:
        raise ValueError(f"softdist tau {tau} is too small: distances up to {longest:.6g} overflow d / tau")
    if k_keep < 1:
        raise ValueError(f"k_keep must be >= 1, got {k_keep}")
    n = dm.n
    step = max(1, BLOCK_ELEMS // n)
    cols, probs, counts = [], [], []
    for lo in range(0, n, step):
        own = np.arange(lo, min(lo + step, n))
        logits = -dm.rows(lo, lo + own.size).astype(np.float64, copy=False) / tau
        logits[own - lo, own] = -np.inf
        logits -= logits.max(axis=1, keepdims=True)  # stabilize; cancels in the normalization
        weights = np.exp(logits)
        weights /= weights.sum(axis=1, keepdims=True)
        # A stable sort of -p leaves each row in canonical (-p, j) order.
        keep = np.argsort(-weights, axis=1, kind="stable")[:, :k_keep]
        other = keep != own[:, None]
        cols.append(keep[other])
        probs.append(np.take_along_axis(weights, keep, axis=1)[other])
        counts.append(other.sum(axis=1))
    return Heatmap(n=n, indptr=row_pointers(np.concatenate(counts)), cols=np.concatenate(cols),
                   probs=np.concatenate(probs))


def load_heatmap(path, instance_n: int | None = None) -> Heatmap:
    """Read the ``n m`` / ``i j p`` text format, validating every entry; a header n other
    than ``instance_n``, when given, is rejected before anything is sized by it."""
    with open(path) as f, naming(path):
        lines = f.read().splitlines() or [""]  # an empty file has an empty header
        try:
            n, m = (int(tok) for tok in lines[0].split())
            if n < 0 or m < 0:
                raise ValueError
        except ValueError:
            raise ValueError(f"line 1: expected 'n m' header, got {lines[0]!r}") from None
        if instance_n is not None and n != instance_n:
            raise ValueError(f"heatmap file is for n={n}, instance has n={instance_n}")
        entries: dict[tuple[int, int], float] = {}
        for line_no, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            try:
                i, j, p = line.split()
                i, j, p = int(i), int(j), float(p)
            except ValueError:
                raise ValueError(f"line {line_no}: expected 'i j p', got {line!r}") from None
            if not 0 <= i < n or not 0 <= j < n:
                raise ValueError(f"line {line_no}: index out of range for n={n}: {line!r}")
            if i == j:
                raise ValueError(f"line {line_no}: self-edge: {line!r}")
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"line {line_no}: probability outside [0, 1]: {line!r}")
            if (i, j) in entries:
                raise ValueError(f"line {line_no}: duplicate entry ({i}, {j}): {line!r}")
            entries[i, j] = p
        if len(entries) != m:
            raise ValueError(f"header declared {m} entries, found {len(entries)}")
        ij = np.array(list(entries), dtype=np.int64).reshape(-1, 2)
        return _from_entries(n, ij[:, 0], ij[:, 1].astype(np.int32), np.array(list(entries.values())))


@dataclass(frozen=True)
class ZeroSource:
    """Per-instance factory for the Zero heatmap (picklable for workers)."""

    def __call__(self, inst, dm, ranks) -> Heatmap:
        return zero_heatmap(inst.n)


@dataclass(frozen=True)
class PriorSource:
    """Per-instance factory applying a fixed rank prior to the table ``prepare`` widened for it."""

    prior: PriorVector

    def __call__(self, inst, dm, ranks) -> Heatmap:
        return prior_to_heatmap(self.prior, ranks)


@dataclass(frozen=True)
class SoftDistSource:
    """Per-instance factory for the distance-softmax heatmap, keeping ``SOFTDIST_KEEP`` entries a row."""

    tau: float

    def __call__(self, inst, dm, ranks) -> Heatmap:
        return softdist_heatmap(dm, self.tau, SOFTDIST_KEEP)


@dataclass(frozen=True)
class FileSource:
    """Factory serving one pre-built heatmap loaded from a file."""

    path: str

    def __call__(self, inst, dm, ranks) -> Heatmap:
        return load_heatmap(self.path, inst.n)


