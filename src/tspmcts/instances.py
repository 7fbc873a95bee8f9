"""TSP instances: generators, TSPLIB ingestion, distances and neighbor ranks.

Cities are 0-indexed internally; TSPLIB's 1-based indices are translated at
the parse/serialize boundary. Generated instances always live in the unit
square. All construction is deterministic given the arguments.
"""
from __future__ import annotations

import enum
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

#: Elements per block for per-row set-up work over all n columns (distance
#: and rank rows, softdist rows, the search state's dense scratch rows):
#: max(1, BLOCK_ELEMS // n) rows at a time keep each temporary near 512 KB
#: of float64 whatever n is.
BLOCK_ELEMS = 1 << 16


@contextmanager
def naming(where):
    """Put ``where`` (a file, or a line of one) in front of the message of any ValueError
    raised in the block, a decode error's included: ``ValueError(f"{where}: {exc}")``."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


class Metric(enum.Enum):
    """Distance metric: exact Euclidean or TSPLIB nearest-integer Euclidean."""

    EUC2D_REAL = "euc2d_real"
    EUC2D_INT = "euc2d_int"


@dataclass(frozen=True)
class Instance:
    """A labeled set of planar points and the metric its distances are measured in."""

    id: str
    points: np.ndarray  # shape (n, 2), float64
    metric: Metric = Metric.EUC2D_REAL

    def __post_init__(self) -> None:
        pts = np.array(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"points must have shape (n, 2), got {pts.shape}")
        if pts.shape[0] < 3:
            raise ValueError(f"instance needs at least 3 cities, got {pts.shape[0]}")
        if not np.isfinite(pts).all():
            raise ValueError(f"instance {self.id!r} has non-finite coordinates")
        # Every |dx| and |dy| is at most the bounding box's w and h, so no distance exceeds
        # sqrt(w*w + h*h), and with nint no tour length exceeds n * (that + 1): in Python floats,
        # which overflow to inf without a numpy warning.
        (x0, y0), (x1, y1) = pts.min(axis=0).tolist(), pts.max(axis=0).tolist()
        w, h = x1 - x0, y1 - y0
        diagonal = math.sqrt(w * w + h * h)
        if not math.isfinite(diagonal) or self.metric is Metric.EUC2D_INT and pts.shape[0] * (diagonal + 1) >= 2**63:
            raise ValueError(f"instance {self.id!r} spans {w:.6g} by {h:.6g}: its tour lengths overflow {self.metric.name}")
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


def generate_uniform(n: int, seed: int) -> Instance:
    """n i.i.d. points uniform on the unit square."""
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    return Instance(id=f"uniform-n{n}-s{seed}", points=pts)


def generate_structured(n: int, seed: int, kind: str, *, n_clusters: int = 5, spread: float = 0.05,
                        center: tuple[float, float] = (0.5, 0.5), radius: float = 0.2) -> Instance:
    """Clustered, explosion or implosion points, clipped to the unit square.

    cluster: uniform centers, round-robin assignment, isotropic Gaussian
    noise with std ``spread``. explosion: uniform points strictly inside
    ``radius`` of ``center`` are pushed radially to the circle. implosion:
    the same points are contracted halfway toward the center instead.
    cluster reads only (n_clusters, spread), the other two only (center, radius).
    """
    rng = np.random.default_rng(seed)
    if kind == "cluster":
        if n_clusters < 1:
            raise ValueError("cluster generator needs n_clusters >= 1")
        if not 0 < spread < math.inf:  # also rejects NaN; noise of spread inf would clip every city to a corner
            raise ValueError(f"cluster generator needs a finite spread > 0, got {spread}")
        centers = rng.random((n_clusters, 2))
        assignment = np.arange(n) % n_clusters
        pts = centers[assignment] + rng.normal(0.0, spread, size=(n, 2))
    elif kind in ("explosion", "implosion"):
        cx, cy = center
        if not (0.0 <= cx <= 1.0 and 0.0 <= cy <= 1.0):
            raise ValueError("center must lie in the unit square")
        if not (0.0 < radius <= 0.5):
            raise ValueError("radius must lie in (0, 0.5]")
        pts = rng.random((n, 2))
        center = np.array([cx, cy])
        offset = pts - center
        dist = np.hypot(offset[:, 0], offset[:, 1])
        inside = dist < radius
        if inside.any():
            # Points sitting exactly on the center get an arbitrary fixed direction.
            direction = offset[inside]
            norms = dist[inside][:, None]
            direction = np.divide(direction, norms, out=np.tile([1.0, 0.0], (int(inside.sum()), 1)), where=norms > 0)
            if kind == "explosion":
                pts[inside] = center + radius * direction
            else:
                pts[inside] = center + 0.5 * offset[inside]
    else:
        raise ValueError(f"unknown distribution kind: {kind!r}")
    pts = np.clip(pts, 0.0, 1.0)
    return Instance(id=f"{kind}-n{n}-s{seed}", points=pts)


def _tsplib_fields(text: str, section: str) -> tuple[dict[str, str], list[str]]:
    """Split a TSPLIB file into header key/values and the lines of its data ``section``
    (``NODE_COORD_SECTION`` or ``TOUR_SECTION``), which runs to ``EOF`` or the end."""
    header: dict[str, str] = {}
    data: list[str] = []
    in_data = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.upper() == section:
            in_data = True
            continue
        if line.upper() == "EOF":
            break
        if in_data:
            data.append(line)
        elif ":" in line:
            key, _, value = line.partition(":")
            header[key.strip().upper()] = value.strip()
        else:
            header[line.upper()] = ""
    if not in_data:
        raise ValueError(f"missing {section}")
    return header, data


def _int(token: str, what: str) -> int:
    """``int(token)``; a malformed token raises a ValueError naming ``what`` and the token."""
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"bad {what}: {token!r}") from None


def _coords(fields: list[str], line: str) -> list[float]:
    """The floats of a coordinate line's fields; a non-numeric one raises a ValueError naming the line."""
    try:
        return [float(v) for v in fields]
    except ValueError:
        raise ValueError(f"bad coordinate line: {line!r}") from None


def parse_tsplib(text: str) -> Instance:
    """Parse a EUC_2D TSPLIB instance; coordinates are kept verbatim, and distances are TSPLIB's nint ones."""
    header, data = _tsplib_fields(text, "NODE_COORD_SECTION")
    if "DIMENSION" not in header:
        raise ValueError("missing DIMENSION")
    n = _int(header["DIMENSION"], "DIMENSION")
    weight_type = header.get("EDGE_WEIGHT_TYPE", "")
    if weight_type.upper() != "EUC_2D":
        raise ValueError(f"unsupported EDGE_WEIGHT_TYPE: {weight_type or 'missing'!r}")
    if len(data) != n:
        raise ValueError(f"expected {n} coordinate lines, found {len(data)}")
    pts = np.empty((n, 2))
    seen = np.zeros(n, dtype=bool)
    for line in data:
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"bad coordinate line: {line!r}")
        idx = _int(parts[0], "city index") - 1
        if not 0 <= idx < n or seen[idx]:
            raise ValueError(f"bad or repeated city index on line: {line!r}")
        seen[idx] = True
        pts[idx] = _coords(parts[1:], line)
    return Instance(id=header.get("NAME", "unnamed"), points=pts, metric=Metric.EUC2D_INT)


def parse_native(text: str, id: str = "native") -> Instance:
    """Parse the native format: header ``n <count>``, then one ``x y`` per city."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines or len(header := lines[0].split()) != 2 or header[0] != "n":
        raise ValueError("missing 'n <count>' header")
    n = _int(header[1], "city count")
    if len(lines) - 1 != n:
        raise ValueError(f"expected {n} coordinate lines, found {len(lines) - 1}")
    rows = [_coords(ln.split(), ln) for ln in lines[1:]]
    if not rows or any(len(row) != 2 for row in rows):
        raise ValueError("coordinate lines must hold exactly two values")
    return Instance(id=id, points=np.array(rows))


def write_native(inst: Instance) -> str:
    """The native text of a real-metric instance (the format has no metric field)."""
    if inst.metric is not Metric.EUC2D_REAL:
        raise ValueError(f"native files hold real-metric points; {inst.id} is {inst.metric.name}")
    lines = [f"n {inst.n}"]
    lines.extend(f"{x:.17g} {y:.17g}" for x, y in inst.points)
    return "\n".join(lines) + "\n"


def distance_matrix(inst: Instance) -> DistanceMatrix:
    """Euclidean distances of the instance, rounded to nearest int for an EUC2D_INT one."""
    return DistanceMatrix(metric=inst.metric, points=inst.points)


def nearest_in_rows(dist: np.ndarray, own: np.ndarray, k: int) -> np.ndarray:
    """The k nearest other cities per row of ``dist``, by (distance, index).

    Row r holds the distances from city ``own[r]`` and is overwritten. Below
    k = n-1 only entries up to each row's (k+1)-th smallest value are sorted,
    so ties at the k-th place go to the smaller index, as in a full sort.
    Full rows are sorted unstably, which orders a row with no tie the same
    way; in a row with a tie, each run of equal distances is then put in
    index order by one sort of (run, index) keys.
    """
    m, n = dist.shape
    dist[np.arange(m), own] = -1  # the own city sorts before every other
    if k + 1 >= n:
        near = np.argsort(dist, axis=1)
        dist.sort(axis=1)  # in place: each row's values in near's order
        step = dist[:, 1:] != dist[:, :-1]  # step[:, j]: column j + 1 starts a new run
        tied = ~step.all(axis=1)
        if tied.any():  # float rows rarely tie, and an empty repair still costs ~2% of the sort
            run = np.cumsum(step[tied], axis=1)  # column 0 is the own city, alone in its run
            near[tied, 1:] = np.sort(run * n + near[tied, 1:], axis=1) % n  # by run, then city
        return near[:, 1 : k + 1]
    kth = np.partition(dist, k, axis=1)[:, k, None].copy()  # a view would keep the partitioned copy alive
    r, c = np.nonzero(dist <= kth)  # row-major, so r is sorted
    order = np.lexsort((dist[r, c], r))  # stable: ties keep ascending c
    return c[order[np.searchsorted(r, np.arange(m))[:, None] + np.arange(1, k + 1)]]


def nearest_neighbor_ranks(dm: DistanceMatrix, k: int | None = None) -> RankTable:
    """Each city's k nearest neighbors (default all n-1), ties by index: the full table's first k columns.

    A truncated table ranks against all n cities only the rows ``_grid_ranks`` cannot certify.
    """
    n = dm.n
    k = n - 1 if k is None else min(k, n - 1)
    if k < 1:
        raise ValueError(f"rank table width must be >= 1, got {k}")
    rows = np.empty((n, k), dtype=np.int32)
    todo = np.arange(n) if k == n - 1 else _grid_ranks(dm, k, rows)
    for own, near, _ in _ranked(dm, todo, np.arange(n), k):
        rows[own] = near
    rows.setflags(write=False)
    return RankTable(rows=rows)


def _ranked(dm: DistanceMatrix, cities: np.ndarray, cands: np.ndarray, k: int):
    """Rank ``cities`` against the ascending ``cands`` in blocks of ``BLOCK_ELEMS``: yield
    (own, its k nearest candidates, the k-th one's distance)."""
    step = max(1, BLOCK_ELEMS // len(cands))
    for lo in range(0, len(cities), step):
        own = cities[lo : lo + step]
        dist = dm.edges(own[:, None], cands)
        near = nearest_in_rows(dist, np.searchsorted(cands, own), k)
        yield own, cands[near], dm.edges(own, cands[near[:, -1]])  # ``dist`` may be reordered


def _grid_ranks(dm: DistanceMatrix, k: int, rows: np.ndarray) -> np.ndarray:
    """Fill the rows of ``rows`` that a grid search certifies; return the other cities.

    Cities are bucketed into square cells of about k/2 cities each, were they
    spread evenly (Bentley's neighbor lists), and rank the cities of the 3x3
    cells around their own. A row is kept when its k-th distance is below a
    bound on every city beyond: the x or y gap to the nearest such city's
    coordinate, put through ``edges``' monotone rounding, less 1e-9 relative.
    """
    n, pts = dm.n, dm.points
    low = pts.min(axis=0)
    g = int(math.sqrt(2 * n / k))  # cells along the longer side
    side = float((pts.max(axis=0) - low).max()) / g
    if not 0 < side < math.inf:  # all cities on one point, or an extent past the float range
        return np.arange(n)
    cell = np.minimum(((pts - low) / side).astype(np.int64), g - 1)  # (column, row), monotone in (x, y)
    gap = np.full(n, np.inf)
    for coord, line in zip(pts.T, cell.T):
        lines, by_coord = np.sort(line), np.concatenate(([-np.inf], np.sort(coord), [np.inf]))
        gap = np.minimum(gap, by_coord[np.searchsorted(lines, line + 2) + 1] - coord)  # lines >= line + 2
        gap = np.minimum(gap, coord - by_coord[np.searchsorted(lines, line - 1)])  # lines <= line - 2
    bound = np.sqrt(gap * gap) * (1 - 1e-9)
    if dm.metric is Metric.EUC2D_INT:
        bound = np.floor(bound + 0.5)
    gx, gy = cell.max(axis=0) + 1
    cid = cell[:, 1] * gx + cell[:, 0]
    by_cell = np.argsort(cid, kind="stable")
    starts = np.searchsorted(cid[by_cell], np.arange(gx * gy + 1))
    failed = []
    for c in np.flatnonzero(np.diff(starts)).tolist():  # occupied cells
        cy, cx = divmod(c, gx)
        left, right = max(cx - 1, 0), min(cx + 2, gx)
        cands = np.sort(np.concatenate([by_cell[starts[r * gx + left] : starts[r * gx + right]]
                                        for r in range(max(cy - 1, 0), min(cy + 2, gy))]))
        cities = by_cell[starts[c] : starts[c + 1]]
        if len(cands) <= k:  # fewer than k others around
            failed.append(cities)
            continue
        for own, near, kth in _ranked(dm, cities, cands, k):
            ok = kth < bound[own]
            rows[own[ok]] = near[ok]
            failed.append(own[~ok])
    return np.concatenate(failed)


def load_instance(path) -> Instance:
    """Read a file as TSPLIB if it announces a coord section, else native."""
    from pathlib import Path

    p = Path(path)
    text = p.read_text()
    if "NODE_COORD_SECTION" in text:
        return parse_tsplib(text)
    return parse_native(text, id=p.stem)
