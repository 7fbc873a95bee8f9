import math
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

from tspmcts.heatmaps import Heatmap, _from_entries, entry_rows
from tspmcts.instances import DistanceMatrix, Instance, Metric, distance_matrix, nearest_neighbor_ranks
from tspmcts.tours import SizeLimitError, Tour, make_tour

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def eil51_text() -> str:
    return (DATA_DIR / "eil51.tsp").read_text()


@pytest.fixture(scope="session")
def eil51_tour_text() -> str:
    return (DATA_DIR / "eil51.opt.tour").read_text()


@pytest.fixture
def unit_square() -> Instance:
    return Instance(id="square", points=np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]]))


def circle_instance(n: int) -> Instance:
    """n equally spaced points on a circle inside the unit square."""
    angles = 2 * math.pi * np.arange(n) / n
    pts = 0.5 + 0.4 * np.column_stack([np.cos(angles), np.sin(angles)])
    return Instance(id=f"circle-{n}", points=pts)


def dm_and_ranks(inst: Instance, metric: Metric = Metric.EUC2D_REAL):
    dm = distance_matrix(inst, metric)
    return dm, nearest_neighbor_ranks(dm)


def heatmap_from_rows(n: int, rows) -> Heatmap:
    """A heatmap from per-row lists of (neighbor, probability), each row in canonical (-p, j) order."""
    row_of = np.repeat(np.arange(n), [len(entries) for entries in rows])
    cols = np.array([j for entries in rows for j, _ in entries], dtype=np.int32)
    probs = np.array([p for entries in rows for _, p in entries], dtype=np.float64)
    return _from_entries(n, row_of, cols, probs)


def write_heatmap(hm: Heatmap, path) -> None:
    """Write the text format ``load_heatmap`` reads: header ``n m``, then m lines ``i j p``."""
    lines = [f"{hm.n} {hm.entry_count()}"]
    lines += [f"{i} {j} {p:.17g}" for i, j, p in zip(entry_rows(hm.indptr).tolist(), hm.cols.tolist(), hm.probs.tolist())]
    Path(path).write_text("\n".join(lines) + "\n")


def tsplib_text(inst: Instance) -> str:
    """The instance as a TSPLIB EUC_2D file, coordinates exact to the bit (``%.17g``)."""
    lines = [f"NAME : {inst.id}", "TYPE : TSP", f"DIMENSION : {inst.n}", "EDGE_WEIGHT_TYPE : EUC_2D", "NODE_COORD_SECTION"]
    lines += [f"{i} {x:.17g} {y:.17g}" for i, (x, y) in enumerate(inst.points.tolist(), start=1)]
    return "\n".join(lines + ["EOF"]) + "\n"


#: (state, holders, pointers) of the last state ``union_neighbors`` read: the cities holding
#: each city as a candidate, ascending, grouped by city; computed once per state.
_holders: list = [None, None, None]


def union_neighbors(state, i: int) -> np.ndarray:
    """City i's neighbors in the candidate union: its own candidates in candidate order,
    then the cities that hold i as a candidate while i does not hold them, ascending."""
    if _holders[0] is not state:
        flat = state.candidates.ravel()
        ptr = np.concatenate(([0], np.cumsum(np.bincount(flat, minlength=state.n))))
        holders = (np.argsort(flat, kind="stable") // state.candidates.shape[1]).astype(np.int32)
        _holders[:] = state, holders, ptr
    _, holders, ptr = _holders
    own, held_by = state.candidates[i], holders[ptr[i] : ptr[i + 1]]
    return np.concatenate((own, held_by[~np.isin(held_by, own)]))


def start_weights(state) -> np.ndarray:
    """exp(P) of every own candidate, (n, mcn): the stored head, then 1.0 for every candidate past it."""
    full = np.ones(state.candidates.shape)
    full[:, : state.cand_exp.shape[1]] = state.cand_exp
    return full


def brute_force_solve(dm: DistanceMatrix) -> Tour:
    """Exhaustive enumeration, for cross-checking exact_solve on tiny n."""
    n = dm.n
    if n > 10:
        raise SizeLimitError(f"brute force is capped at n <= 10, got {n}")
    d = dm.entries.tolist()
    d0 = d[0]
    best_order = None
    best_len = math.inf
    for perm in permutations(range(1, n)):
        if perm[0] > perm[-1]:
            continue  # each undirected cycle enumerated once
        prev = perm[0]
        length = d0[prev]
        for city in perm[1:]:
            length += d[prev][city]
            prev = city
        length += d0[prev]
        if length < best_len:
            best_len = length
            best_order = (0,) + perm
    return make_tour(np.array(best_order, dtype=np.int32), dm)
