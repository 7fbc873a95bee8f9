"""Edge-probability heatmaps and the neighbor-rank prior that feeds them.

A heatmap stores, per city, a sparse list of (neighbor, probability) entries;
absent entries are implicit zeros. The GT-Prior assigns each edge (i, j) the
empirical probability that optimal tours connect a city to its k-th nearest
neighbor, where k is j's distance rank from i.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .instances import DistanceMatrix, RankTable
from .knn_stats import aggregate, per_instance_distribution
from .tours import Tour


class HeatmapFormatError(ValueError):
    """Raised for malformed heatmap files; carries the offending line number."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


@dataclass(frozen=True)
class Heatmap:
    """Sparse per-city edge probabilities, rows sorted by descending p."""

    n: int
    rows: tuple[tuple[tuple[int, float], ...], ...]

    def __post_init__(self) -> None:
        if len(self.rows) != self.n:
            raise ValueError(f"expected {self.n} rows, got {len(self.rows)}")

    def prob(self, i: int, j: int) -> float:
        for neighbor, p in self.rows[i]:
            if neighbor == j:
                return p
        return 0.0

    def row(self, i: int) -> tuple[tuple[int, float], ...]:
        return self.rows[i]

    def entry_count(self) -> int:
        return sum(len(r) for r in self.rows)


def _sort_row(entries: Sequence[tuple[int, float]]) -> tuple[tuple[int, float], ...]:
    return tuple(sorted(entries, key=lambda e: (-e[1], e[0])))


def _validate_entries(n: int, i: int, entries: Sequence[tuple[int, float]]) -> None:
    seen = set()
    for j, p in entries:
        if j == i:
            raise ValueError(f"self-edge ({i}, {j})")
        if not 0 <= j < n:
            raise ValueError(f"neighbor index {j} out of range for n={n}")
        if j in seen:
            raise ValueError(f"duplicate neighbor {j} in row {i}")
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability {p} outside [0, 1]")
        seen.add(j)


def make_heatmap(n: int, rows: Sequence[Sequence[tuple[int, float]]]) -> Heatmap:
    """Validate and canonically sort row entries."""
    sorted_rows = []
    for i, entries in enumerate(rows):
        _validate_entries(n, i, entries)
        sorted_rows.append(_sort_row(entries))
    return Heatmap(n=n, rows=tuple(sorted_rows))


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


def build_gt_prior(rank_tables: Sequence[RankTable], tours: Sequence[Tour]) -> PriorVector:
    """Average per-instance rank distributions into a prior vector.

    Both traversal directions are counted, so each instance contributes 2n
    observations and the result sums to 1. Truncated at the largest rank
    observed anywhere in the corpus.
    """
    if len(rank_tables) != len(tours):
        raise ValueError(f"{len(rank_tables)} rank tables vs {len(tours)} tours")
    if not tours:
        raise ValueError("need at least one (rank table, tour) pair")
    dists = [per_instance_distribution(rt, t) for rt, t in zip(rank_tables, tours)]
    return PriorVector(masses=aggregate(dists).masses)


def prior_to_heatmap(prior: PriorVector, ranks: RankTable) -> Heatmap:
    """Assign each edge the prior mass at its neighbor rank.

    Row i holds exactly its min(truncation, n-1) nearest neighbors; edges at
    ranks beyond the truncation stay implicit zeros.
    """
    n = ranks.n
    k = min(prior.truncation, n - 1)
    rows = []
    for i in range(n):
        neighbors = ranks.row(i)[:k]
        rows.append([(int(j), float(prior.masses[r])) for r, j in enumerate(neighbors)])
    return make_heatmap(n, rows)


def zero_heatmap(n: int) -> Heatmap:
    """The non-informative heatmap: every edge probability is zero."""
    return Heatmap(n=n, rows=tuple(() for _ in range(n)))


def softdist_heatmap(dm: DistanceMatrix, tau: float, k_keep: int) -> Heatmap:
    """Distance softmax rows: p_ij proportional to exp(-d_ij / tau).

    Each row is normalized over j != i, then truncated to its k_keep most
    probable entries without renormalizing. The exponential form with a
    temperature flag is this artifact's own definition of a distance-based
    heatmap; tau has no canonical default and is exposed as a CLI flag.
    """
    if not tau > 0:  # also rejects NaN
        raise ValueError(f"tau must be positive, got {tau}")
    if k_keep < 1:
        raise ValueError(f"k_keep must be >= 1, got {k_keep}")
    n = dm.n
    rows = []
    for i in range(n):
        logits = -dm.entries[i].astype(np.float64) / tau
        logits[i] = -np.inf
        logits -= logits.max()  # stabilize; cancels in the normalization
        weights = np.exp(logits)
        probs = weights / weights.sum()
        keep = np.argsort(-probs, kind="stable")[:k_keep]
        rows.append([(int(j), float(probs[j])) for j in keep if j != i])
    return make_heatmap(n, rows)


def sparsify_topk(hm: Heatmap, k: int) -> Heatmap:
    """Keep each row's k largest entries (ties to the smaller neighbor index)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return Heatmap(n=hm.n, rows=tuple(_sort_row(row)[:k] for row in hm.rows))


def save_heatmap(hm: Heatmap, path) -> None:
    """Write the text format: header ``n m`` then m lines ``i j p``."""
    with open(path, "w") as f:
        f.write(f"{hm.n} {hm.entry_count()}\n")
        for i, row in enumerate(hm.rows):
            for j, p in row:
                f.write(f"{i} {j} {p:.17g}\n")


def load_heatmap(path) -> Heatmap:
    """Read the ``n m`` / ``i j p`` text format, validating every entry."""
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines:
        raise HeatmapFormatError("empty heatmap file")
    header = lines[0].split()
    if len(header) != 2:
        raise HeatmapFormatError(f"expected 'n m' header, got {lines[0]!r}", line_no=1)
    n, m = int(header[0]), int(header[1])
    rows: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    entries = 0
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 3:
            raise HeatmapFormatError(f"expected 'i j p', got {line!r}", line_no=line_no)
        i, j, p = int(parts[0]), int(parts[1]), float(parts[2])
        if not 0 <= i < n or not 0 <= j < n:
            raise HeatmapFormatError(f"index out of range for n={n}: {line!r}", line_no=line_no)
        if i == j:
            raise HeatmapFormatError(f"self-edge: {line!r}", line_no=line_no)
        if not 0.0 <= p <= 1.0:
            raise HeatmapFormatError(f"probability outside [0, 1]: {line!r}", line_no=line_no)
        rows[i].append((j, p))
        entries += 1
    if entries != m:
        raise HeatmapFormatError(f"header declared {m} entries, found {entries}")
    return make_heatmap(n, rows)


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
