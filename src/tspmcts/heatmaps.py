"""Edge-probability heatmaps and the neighbor-rank prior that feeds them.

A heatmap stores, per city, a sparse row of (neighbor, probability) entries
in compressed-row arrays; absent entries are implicit zeros. The GT-Prior
assigns each edge (i, j) the empirical probability that optimal tours
connect a city to its k-th nearest neighbor, where k is j's distance rank
from i.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .instances import BLOCK_ELEMS, DistanceMatrix, RankTable, nearest_neighbor_ranks
from .knn_stats import aggregate, per_instance_distribution
from .tours import Tour


class HeatmapFormatError(ValueError):
    """Raised for malformed heatmap files; carries the offending line number."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


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

    def entry_count(self) -> int:
        return int(self.indptr[-1])


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


def build_gt_prior(dms: Sequence[DistanceMatrix], tours: Sequence[Tour]) -> PriorVector:
    """Average per-instance rank distributions into a prior vector.

    Both traversal directions are counted, so each instance contributes 2n
    observations and the result sums to 1. Truncated at the largest rank
    observed anywhere in the corpus.
    """
    if len(dms) != len(tours):
        raise ValueError(f"{len(dms)} distance matrices vs {len(tours)} tours")
    if not tours:
        raise ValueError("need at least one (distance matrix, tour) pair")
    dists = [per_instance_distribution(dm, t) for dm, t in zip(dms, tours)]
    return PriorVector(masses=aggregate(dists).masses)


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


def softdist_heatmap(dm: DistanceMatrix, tau: float, k_keep: int) -> Heatmap:
    """Distance softmax rows: p_ij proportional to exp(-d_ij / tau).

    Each row is normalized over j != i, then truncated to its k_keep most
    probable entries without renormalizing. The exponential form with a
    temperature flag is this artifact's own definition of a distance-based
    heatmap; tau has no canonical default and is exposed as a CLI flag.
    Rows are computed in blocks of about ``BLOCK_ELEMS`` entries.
    """
    if not tau > 0:  # also rejects NaN
        raise ValueError(f"tau must be positive, got {tau}")
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


def load_heatmap(path) -> Heatmap:
    """Read the ``n m`` / ``i j p`` text format, validating every entry."""
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines:
        raise HeatmapFormatError("empty heatmap file")
    try:
        n, m = (int(tok) for tok in lines[0].split())
        if n < 0 or m < 0:
            raise ValueError
    except ValueError:
        raise HeatmapFormatError(f"expected 'n m' header, got {lines[0]!r}", line_no=1) from None
    entries: dict[tuple[int, int], float] = {}
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            i, j, p = line.split()
            i, j, p = int(i), int(j), float(p)
        except ValueError:
            raise HeatmapFormatError(f"expected 'i j p', got {line!r}", line_no=line_no) from None
        if not 0 <= i < n or not 0 <= j < n:
            raise HeatmapFormatError(f"index out of range for n={n}: {line!r}", line_no=line_no)
        if i == j:
            raise HeatmapFormatError(f"self-edge: {line!r}", line_no=line_no)
        if not 0.0 <= p <= 1.0:
            raise HeatmapFormatError(f"probability outside [0, 1]: {line!r}", line_no=line_no)
        if (i, j) in entries:
            raise HeatmapFormatError(f"duplicate entry ({i}, {j}): {line!r}", line_no=line_no)
        entries[i, j] = p
    if len(entries) != m:
        raise HeatmapFormatError(f"header declared {m} entries, found {len(entries)}")
    ij = np.array(list(entries), dtype=np.int64).reshape(-1, 2)
    return _from_entries(n, ij[:, 0], ij[:, 1].astype(np.int32), np.array(list(entries.values())))


@dataclass(frozen=True)
class ZeroSource:
    """Per-instance factory for the Zero heatmap (picklable for workers)."""

    def __call__(self, inst, dm, ranks) -> Heatmap:
        return zero_heatmap(inst.n)


@dataclass(frozen=True)
class PriorSource:
    """Per-instance factory applying a fixed rank prior."""

    prior: PriorVector

    def __call__(self, inst, dm, ranks) -> Heatmap:
        if ranks.width < min(self.prior.truncation, inst.n - 1):
            ranks = nearest_neighbor_ranks(dm, self.prior.truncation)
        return prior_to_heatmap(self.prior, ranks)


@dataclass(frozen=True)
class SoftDistSource:
    """Per-instance factory for the distance-softmax heatmap."""

    tau: float
    k_keep: int = 24

    def __call__(self, inst, dm, ranks) -> Heatmap:
        return softdist_heatmap(dm, self.tau, self.k_keep)


@dataclass(frozen=True)
class FileSource:
    """Factory serving one pre-built heatmap loaded from a file."""

    path: str

    def __call__(self, inst, dm, ranks) -> Heatmap:
        hm = load_heatmap(self.path)
        if hm.n != inst.n:
            raise ValueError(f"heatmap file is for n={hm.n}, instance has n={inst.n}")
        return hm


def save_prior(prior: PriorVector, path) -> None:
    with open(path, "w") as f:
        for mass in prior.masses:
            f.write(f"{mass:.17g}\n")


def load_prior(path) -> PriorVector:
    with open(path) as f:
        values = [float(tok) for tok in f.read().split()]
    if not values:
        raise ValueError(f"no prior masses found in {path}")
    return PriorVector(masses=np.array(values))
