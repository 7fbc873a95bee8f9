"""TSP instances: generators, TSPLIB ingestion, distances and neighbor ranks.

Cities are 0-indexed internally; TSPLIB's 1-based indices are translated at
the parse/serialize boundary. Generated instances always live in the unit
square. All construction is deterministic given the arguments.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

#: Elements per block for per-row set-up work over all n columns (distance
#: and rank rows, softdist rows, the search state's dense scratch rows):
#: max(1, BLOCK_ELEMS // n) rows at a time keep each temporary near 512 KB
#: of float64 whatever n is.
BLOCK_ELEMS = 1 << 16


class ParseError(ValueError):
    """Raised when an instance file cannot be parsed."""


class UnsupportedMetricError(ValueError):
    """Raised for TSPLIB edge weight types other than EUC_2D."""


class Metric(enum.Enum):
    """Distance metric: exact Euclidean or TSPLIB nearest-integer Euclidean."""

    EUC2D_REAL = "euc2d_real"
    EUC2D_INT = "euc2d_int"


@dataclass(frozen=True)
class Instance:
    """A labeled set of planar points."""

    id: str
    points: np.ndarray  # shape (n, 2), float64
    source: str = "unknown"

    def __post_init__(self) -> None:
        pts = np.array(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"points must have shape (n, 2), got {pts.shape}")
        if pts.shape[0] < 3:
            raise ValueError(f"instance needs at least 3 cities, got {pts.shape[0]}")
        if not np.isfinite(pts).all():
            raise ValueError(f"instance {self.id!r} has non-finite coordinates")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class DistanceMatrix:
    """Pairwise distances of a point set, computed from its coordinates on demand.

    Every reader evaluates ``sqrt(dx*dx + dy*dy)`` (then nint for EUC2D_INT,
    as int64), so a distance is bit-identical however it is read.
    """

    metric: Metric
    points: np.ndarray = field(repr=False)  # shape (n, 2), float64

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Distances from cities lo..hi-1 to every city, as a new (hi - lo, n) array."""
        return self.edges(np.arange(lo, hi)[:, None], np.arange(self.n))

    def edges(self, i, j) -> np.ndarray:
        """Distances between cities i and j, elementwise over broadcast index arrays."""
        x, y = self.points[:, 0], self.points[:, 1]
        dx = x[i] - x[j]
        dy = y[i] - y[j]
        dx *= dx
        dy *= dy
        dx += dy
        np.sqrt(dx, out=dx)
        if self.metric is Metric.EUC2D_INT:
            # TSPLIB nint(): round half away from zero; distances are non-negative.
            dx += 0.5
            return np.floor(dx, out=dx).astype(np.int64)
        return dx

    @cached_property
    def _coords(self) -> tuple[list[float], list[float], bool]:
        return self.points[:, 0].tolist(), self.points[:, 1].tolist(), self.metric is Metric.EUC2D_INT

    def pair(self, i: int, j: int) -> float:
        """The distance between cities i and j as a Python float, for scalar loops."""
        xs, ys, nint = self._coords
        dx = xs[i] - xs[j]
        dy = ys[i] - ys[j]
        d = math.sqrt(dx * dx + dy * dy)
        return float(math.floor(d + 0.5)) if nint else d

    @cached_property
    def entries(self) -> np.ndarray:
        """The dense (n, n) matrix, built from ``rows`` in blocks on first use.

        Only ``tours.two_opt`` reads it. Both remain only because ``bench/``
        builds its reference tours with ``two_opt`` and reads this matrix.
        """
        n = self.n
        step = max(1, BLOCK_ELEMS // n)
        entries = np.empty((n, n), dtype=np.int64 if self.metric is Metric.EUC2D_INT else np.float64)
        for lo in range(0, n, step):
            entries[lo : lo + step] = self.rows(lo, min(lo + step, n))
        entries.setflags(write=False)
        return entries

    def __getitem__(self, ij: tuple[int, int]) -> float:
        return self.pair(*ij)


@dataclass(frozen=True)
class RankTable:
    """Each city's nearest neighbors by ascending distance (ties by index).

    ``rows[i]`` lists the ``width`` cities nearest to i, nearest first: all
    n-1 others for a full table, a prefix of that order for a truncated one,
    so j's 1-based rank among i's neighbors is its position in ``rows[i]`` + 1.
    """

    rows: np.ndarray = field(repr=False)  # shape (n, width), int32

    @cached_property
    def inverse(self) -> np.ndarray:
        """``inverse[i, j]`` = j's 1-based rank from i, 0 off the table; shape (n, n), int32. Built on first use.

        Nothing in the package reads it; it remains only because ``bench/`` does.
        """
        inverse = np.zeros((self.n, self.n), dtype=np.int32)
        np.put_along_axis(inverse, self.rows, np.arange(1, self.width + 1, dtype=np.int32), axis=1)
        inverse.setflags(write=False)
        return inverse

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def width(self) -> int:
        return self.rows.shape[1]

    def row(self, i: int) -> np.ndarray:
        return self.rows[i]


@dataclass(frozen=True)
class StructuredParams:
    """Parameters for the non-uniform generators.

    cluster uses (n_clusters, spread); explosion/implosion use (center, radius).
    """

    n_clusters: int = 5
    spread: float = 0.05
    center: tuple[float, float] = (0.5, 0.5)
    radius: float = 0.2


def generate_uniform(n: int, seed: int) -> Instance:
    """n i.i.d. points uniform on the unit square."""
    if n < 3:
        raise ValueError(f"instance needs at least 3 cities, got {n}")
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    return Instance(id=f"uniform-n{n}-s{seed}", points=pts, source=f"generated(uniform, seed={seed})")


def generate_structured(n: int, seed: int, kind: str, params: StructuredParams | None = None) -> Instance:
    """Clustered, explosion or implosion points, clipped to the unit square.

    cluster: uniform centers, round-robin assignment, isotropic Gaussian
    noise with std ``spread``. explosion: uniform points strictly inside
    ``radius`` of ``center`` are pushed radially to the circle. implosion:
    the same points are contracted halfway toward the center instead.
    """
    if n < 3:
        raise ValueError(f"instance needs at least 3 cities, got {n}")
    params = params or StructuredParams()
    rng = np.random.default_rng(seed)
    if kind == "cluster":
        if params.n_clusters < 1:
            raise ValueError("cluster generator needs n_clusters >= 1")
        if params.spread <= 0:
            raise ValueError("cluster generator needs spread > 0")
        centers = rng.random((params.n_clusters, 2))
        assignment = np.arange(n) % params.n_clusters
        pts = centers[assignment] + rng.normal(0.0, params.spread, size=(n, 2))
    elif kind in ("explosion", "implosion"):
        cx, cy = params.center
        if not (0.0 <= cx <= 1.0 and 0.0 <= cy <= 1.0):
            raise ValueError("center must lie in the unit square")
        if not (0.0 < params.radius <= 0.5):
            raise ValueError("radius must lie in (0, 0.5]")
        pts = rng.random((n, 2))
        center = np.array([cx, cy])
        offset = pts - center
        dist = np.hypot(offset[:, 0], offset[:, 1])
        inside = dist < params.radius
        if inside.any():
            # Points sitting exactly on the center get an arbitrary fixed direction.
            direction = offset[inside]
            norms = dist[inside][:, None]
            direction = np.divide(direction, norms, out=np.tile([1.0, 0.0], (int(inside.sum()), 1)), where=norms > 0)
            if kind == "explosion":
                pts[inside] = center + params.radius * direction
            else:
                pts[inside] = center + 0.5 * offset[inside]
    else:
        raise ValueError(f"unknown distribution kind: {kind!r}")
    pts = np.clip(pts, 0.0, 1.0)
    return Instance(id=f"{kind}-n{n}-s{seed}", points=pts, source=f"generated({kind}, seed={seed})")


def _tsplib_fields(text: str) -> tuple[dict[str, str], list[str]]:
    """Split a TSPLIB file into header key/values and data-section lines."""
    header: dict[str, str] = {}
    data: list[str] = []
    in_coords = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.upper() == "NODE_COORD_SECTION":
            in_coords = True
            continue
        if line.upper() == "EOF":
            break
        if in_coords:
            data.append(line)
        elif ":" in line:
            key, _, value = line.partition(":")
            header[key.strip().upper()] = value.strip()
        else:
            header[line.upper()] = ""
    if not in_coords:
        raise ParseError("missing NODE_COORD_SECTION")
    return header, data


def parse_tsplib(text: str) -> Instance:
    """Parse a EUC_2D TSPLIB instance; coordinates are kept verbatim."""
    header, data = _tsplib_fields(text)
    if "DIMENSION" not in header:
        raise ParseError("missing DIMENSION")
    try:
        n = int(header["DIMENSION"])
    except ValueError as exc:
        raise ParseError(f"bad DIMENSION: {header['DIMENSION']!r}") from exc
    weight_type = header.get("EDGE_WEIGHT_TYPE", "")
    if weight_type.upper() != "EUC_2D":
        raise UnsupportedMetricError(f"unsupported EDGE_WEIGHT_TYPE: {weight_type or 'missing'!r}")
    if len(data) != n:
        raise ParseError(f"expected {n} coordinate lines, found {len(data)}")
    pts = np.empty((n, 2))
    seen = np.zeros(n, dtype=bool)
    for line in data:
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"bad coordinate line: {line!r}")
        idx = int(parts[0]) - 1
        if not 0 <= idx < n or seen[idx]:
            raise ParseError(f"bad or repeated city index on line: {line!r}")
        seen[idx] = True
        pts[idx] = (float(parts[1]), float(parts[2]))
    name = header.get("NAME", "unnamed")
    return Instance(id=name, points=pts, source=f"tsplib({name})")


def parse_native(text: str, id: str = "native") -> Instance:
    """Parse the native format: header ``n <count>``, then one ``x y`` per city."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines or not lines[0].startswith("n "):
        raise ParseError("missing 'n <count>' header")
    try:
        n = int(lines[0].split()[1])
    except (IndexError, ValueError) as exc:
        raise ParseError(f"bad header: {lines[0]!r}") from exc
    if len(lines) - 1 != n:
        raise ParseError(f"expected {n} coordinate lines, found {len(lines) - 1}")
    pts = np.array([[float(v) for v in ln.split()] for ln in lines[1:]])
    if pts.shape != (n, 2):
        raise ParseError("coordinate lines must hold exactly two values")
    return Instance(id=id, points=pts, source="native")


def write_native(inst: Instance) -> str:
    lines = [f"n {inst.n}"]
    lines.extend(f"{x:.17g} {y:.17g}" for x, y in inst.points)
    return "\n".join(lines) + "\n"


def distance_matrix(inst: Instance, metric: Metric = Metric.EUC2D_REAL) -> DistanceMatrix:
    """Euclidean distances of the instance, rounded to nearest int for EUC2D_INT."""
    return DistanceMatrix(metric=metric, points=inst.points)


def nearest_in_rows(dist: np.ndarray, own: np.ndarray, k: int) -> np.ndarray:
    """The k nearest other cities per row of ``dist``, by (distance, index).

    Row r holds the distances from city ``own[r]`` and is overwritten. Below
    k = n-1 only entries up to each row's (k+1)-th smallest value are sorted,
    so ties at the k-th place go to the smaller index, as in a full sort.
    """
    m, n = dist.shape
    dist[np.arange(m), own] = -1  # the own city sorts before every other
    if k + 1 >= n:
        return np.argsort(dist, axis=1, kind="stable")[:, 1 : k + 1]
    kth = np.partition(dist, k, axis=1)[:, k, None]
    r, c = np.nonzero(dist <= kth)  # row-major, so r is sorted
    order = np.lexsort((dist[r, c], r))  # stable: ties keep ascending c
    return c[order[np.searchsorted(r, np.arange(m))[:, None] + np.arange(1, k + 1)]]


def nearest_neighbor_ranks(dm: DistanceMatrix, k: int | None = None) -> RankTable:
    """Each city's k nearest neighbors (default all n-1), ties by index: the full table's first k columns."""
    n = dm.n
    k = n - 1 if k is None else min(k, n - 1)
    if k < 1:
        raise ValueError(f"rank table width must be >= 1, got {k}")
    rows = np.empty((n, k), dtype=np.int32)
    step = max(1, BLOCK_ELEMS // n)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        rows[lo:hi] = nearest_in_rows(dm.rows(lo, hi), np.arange(lo, hi), k)
    rows.setflags(write=False)
    return RankTable(rows=rows)


def load_instance(path) -> Instance:
    """Read a file as TSPLIB if it announces a coord section, else native."""
    from pathlib import Path

    p = Path(path)
    text = p.read_text()
    if "NODE_COORD_SECTION" in text:
        return parse_tsplib(text)
    return parse_native(text, id=p.stem)
