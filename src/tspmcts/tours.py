"""Tours: length evaluation, exact small-N solving, 2-opt, and tour files."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .instances import DistanceMatrix

#: Largest instance the Held-Karp oracle accepts (2^(n-1) * (n-1) table).
EXACT_SOLVE_MAX_N = 18


class InvalidTourError(ValueError):
    """Raised when an index sequence is not a permutation of the cities."""


class SizeLimitError(ValueError):
    """Raised when exact_solve is asked for an instance beyond its cap."""


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


def _check_permutation(order: np.ndarray, n: int) -> np.ndarray:
    order = np.asarray(order, dtype=np.int64)
    if order.shape != (n,):
        raise InvalidTourError(f"tour has {order.shape} entries, expected ({n},)")
    seen = np.zeros(n, dtype=bool)
    if order.min(initial=0) < 0 or order.max(initial=0) >= n:
        raise InvalidTourError("tour contains out-of-range city indices")
    seen[order] = True
    if not seen.all():
        raise InvalidTourError("tour is missing cities (duplicates present)")
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
    """Globally optimal tour by Held-Karp dynamic programming (n <= 18)."""
    n = dm.n
    if n > EXACT_SOLVE_MAX_N:
        raise SizeLimitError(f"exact_solve handles n <= {EXACT_SOLVE_MAX_N}, got {n}")
    d = dm.rows(0, n).astype(np.float64)
    m = n - 1  # cities 1..n-1; tours anchored at city 0
    full = 1 << m
    dp = np.full((full, m), np.inf)
    parent = np.full((full, m), -1, dtype=np.int8)
    for j in range(m):
        dp[1 << j, j] = d[0, j + 1]
    dsub = d[1:, 1:]
    bit_lists = [[j for j in range(m) if mask >> j & 1] for mask in range(full)]
    for mask in range(1, full):
        js = bit_lists[mask]
        if len(js) < 2:
            continue
        prevs = [mask ^ (1 << j) for j in js]
        # cand[t, i] = best path over prevs[t] ending at i, plus edge i -> js[t]
        cand = dp[prevs] + dsub[:, js].T
        dp[mask, js] = cand.min(axis=1)
        parent[mask, js] = cand.argmin(axis=1)
    closing = dp[full - 1] + d[1:, 0]
    j = int(closing.argmin())
    order = [0]
    mask = full - 1
    path = []
    while j >= 0:
        path.append(j + 1)
        j_next = int(parent[mask, j])
        mask ^= 1 << j
        j = j_next
    order.extend(reversed(path))
    order = canonical_order(np.array(order, dtype=np.int32))
    return make_tour(order, dm)


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
    """Read a tour file: native ``n`` + 0-based indices, or TSPLIB TOUR_SECTION."""
    if "TOUR_SECTION" in text:
        return _parse_tsplib_tour(text)
    tokens = text.split()
    if not tokens:
        raise InvalidTourError("empty tour file")
    n = int(tokens[0])
    values = [int(t) for t in tokens[1:]]
    if len(values) != n:
        raise InvalidTourError(f"expected {n} indices, found {len(values)}")
    return _check_permutation(np.array(values), n).astype(np.int32)


def _parse_tsplib_tour(text: str) -> np.ndarray:
    values: list[int] = []
    in_section = False
    n = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.upper().startswith("DIMENSION"):
            n = int(line.split(":")[-1])
        elif line.upper() == "TOUR_SECTION":
            in_section = True
        elif in_section:
            for tok in line.split():
                if tok == "-1" or tok.upper() == "EOF":
                    in_section = False
                    break
                values.append(int(tok) - 1)  # TSPLIB tours are 1-based
    if n is None:
        n = len(values)
    return _check_permutation(np.array(values), n).astype(np.int32)


def write_tour(order: np.ndarray) -> str:
    order = np.asarray(order, dtype=np.int64)
    return f"{order.shape[0]}\n" + " ".join(str(int(v)) for v in order) + "\n"
