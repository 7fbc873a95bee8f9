"""Tours: length evaluation, exact small-N solving, 2-opt, and tour files."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .instances import BLOCK_ELEMS, DistanceMatrix, _int, _tsplib_fields

#: Largest instance the Held-Karp oracle accepts (2^(n-1) * (n-1) table).
EXACT_SOLVE_MAX_N = 18


@dataclass(frozen=True)
class Tour:
    """A closed tour: a permutation of city indices with its cached length."""

    order: np.ndarray  # shape (n,), int32
    length: float

    def __post_init__(self) -> None:
        order = np.array(self.order, dtype=np.int32)
        order.setflags(write=False)
        object.__setattr__(self, "order", order)

    @property
    def n(self) -> int:
        return self.order.shape[0]


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a solver run."""

    best_tour: Tour
    wall_time: float
    restarts: int
    moves_accepted: int
    simulations: int = 0
    #: Moves rejected because they shortened the tour only by floating-point noise.
    noise_rejects: int = 0


def _check_permutation(order: np.ndarray, n: int) -> np.ndarray:
    order = np.asarray(order, dtype=np.int64)
    if order.shape != (n,):
        raise ValueError(f"tour has {order.shape} entries, expected ({n},)")
    seen = np.zeros(n, dtype=bool)
    if order.min(initial=0) < 0 or order.max(initial=0) >= n:
        raise ValueError("tour contains out-of-range city indices")
    seen[order] = True
    if not seen.all():
        raise ValueError("tour is missing cities (duplicates present)")
    return order


def tour_length(order: Sequence[int] | np.ndarray, dm: DistanceMatrix) -> float:
    """Sum of consecutive edges plus the closing edge."""
    order = _check_permutation(np.asarray(order), dm.n)
    return float(dm.edges(order, np.roll(order, -1)).sum())


def make_tour(order: Sequence[int] | np.ndarray, dm: DistanceMatrix) -> Tour:
    return Tour(order=np.asarray(order, dtype=np.int32), length=tour_length(order, dm))


def canonical_order(order: np.ndarray) -> np.ndarray:
    """Rotate city 0 to the front, then orient toward the smaller second city.

    Makes rotation/reversal-invariant tour equality a plain array compare.
    """
    order = np.asarray(order)
    start = int(np.flatnonzero(order == 0)[0])
    rotated = np.roll(order, -start)
    if rotated[1] > rotated[-1]:
        rotated = np.roll(rotated[::-1], 1)
    return rotated


def exact_solve(dm: DistanceMatrix) -> Tour:
    """Globally optimal tour by Held-Karp dynamic programming (n <= 18).

    Subsets are processed in layers of equal size, each (subset, last city)
    pair in one gather over all predecessors, in chunks of ``BLOCK_ELEMS``
    sums; ties go to the first predecessor.
    """
    n = dm.n
    if n > EXACT_SOLVE_MAX_N:
        raise ValueError(f"exact_solve handles n <= {EXACT_SOLVE_MAX_N}, got {n}")
    d = dm.rows(0, n).astype(np.float64)
    m = n - 1  # cities 1..n-1; tours anchored at city 0
    full = 1 << m
    dp = np.full((full, m), np.inf)
    parent = np.full((full, m), -1, dtype=np.int8)
    dp[1 << np.arange(m), np.arange(m)] = d[0, 1:]
    dsub_t = d[1:, 1:].T.copy()  # dsub_t[j, i]: edge i -> j
    masks = np.arange(full, dtype=np.int32)
    size = sum((masks >> j & 1).astype(np.int8) for j in range(m))
    step = max(1, BLOCK_ELEMS // m)
    for layer in range(2, m + 1):
        layer_masks = masks[size == layer]
        row, lasts = np.nonzero(layer_masks[:, None] >> np.arange(m, dtype=np.int32) & 1)  # (subset, last city) pairs
        subsets = layer_masks[row]
        for lo in range(0, len(subsets), step):
            sub, last = subsets[lo : lo + step], lasts[lo : lo + step]
            # cand[t, i] = best path over sub[t] minus last[t] ending at i, plus edge i -> last[t]
            cand = dp[sub ^ (1 << last)]
            cand += dsub_t[last]
            dp[sub, last] = cand.min(axis=1)
            parent[sub, last] = cand.argmin(axis=1)
    closing = dp[full - 1] + d[1:, 0]
    j, mask, path = int(closing.argmin()), full - 1, []
    while j >= 0:
        path.append(j + 1)
        mask, j = mask ^ (1 << j), int(parent[mask, j])
    return make_tour(canonical_order(np.array([0, *reversed(path)], dtype=np.int32)), dm)


def two_opt(start: Tour, dm: DistanceMatrix, max_passes: int = 50) -> Tour:
    """First-improvement 2-opt sweeps until locally optimal or out of passes."""
    n = start.n
    d = dm.entries
    order = np.array(start.order, dtype=np.int32)
    improved = True
    passes = 0
    while improved and passes < max_passes:
        improved = False
        passes += 1
        for i in range(n - 1):
            a, b = order[i], order[(i + 1) % n]
            for k in range(i + 2, n):
                if i == 0 and k == n - 1:
                    continue  # same edge pair
                c, e = order[k], order[(k + 1) % n]
                delta = d[a, c] + d[b, e] - d[a, b] - d[c, e]
                if delta < -1e-12:
                    order[i + 1 : k + 1] = order[i + 1 : k + 1][::-1]
                    b = order[(i + 1) % n]
                    improved = True
    return make_tour(order, dm)


def parse_tour(text: str) -> np.ndarray:
    """Read a tour file: native ``n`` + 0-based indices, or a TSPLIB TOUR_SECTION of 1-based
    indices up to ``-1``, whose DIMENSION (default: the index count) the indices must fill."""
    if "TOUR_SECTION" in text:
        header, data = _tsplib_fields(text, "TOUR_SECTION")
        tokens = " ".join(data).split() + ["-1"]
        values = [_int(t, "tour index") - 1 for t in tokens[: tokens.index("-1")]]
        n = _int(header["DIMENSION"], "DIMENSION") if "DIMENSION" in header else len(values)
    else:
        tokens = text.split()
        if not tokens:
            raise ValueError("empty tour file")
        n = _int(tokens[0], "tour size")
        values = [_int(t, "tour index") for t in tokens[1:]]
        if len(values) != n:
            raise ValueError(f"expected {n} indices, found {len(values)}")
    return _check_permutation(np.array(values), n).astype(np.int32)


def write_tour(order: np.ndarray) -> str:
    order = np.asarray(order, dtype=np.int64)
    return f"{order.shape[0]}\n" + " ".join(str(int(v)) for v in order) + "\n"
