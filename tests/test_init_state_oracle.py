"""The array-built ``init_state`` against a per-row reference, and truncated rank tables.

``reference_init_state`` builds each city's candidates, start weights and union
row one row at a time from the heatmap's Python rows. The state is read through
its public accessors, so the check does not depend on how ``MctsState`` stores
its rows: the candidate arrays byte for byte, the union row of every city in
order, the bits of every union edge's weight, zero visits everywhere, and every
potential at M = 1, which reads 1/sqrt(Q+1). Omega is summed from the (n, mcn)
arrays, not as a dense row, so it is checked against ``math.fsum`` of each
union row.
"""
import math
import random

import numpy as np
import pytest

from tspmcts.heatmaps import (
    BUILTIN_PRIORS,
    Heatmap,
    load_heatmap,
    prior_to_heatmap,
    softdist_heatmap,
    zero_heatmap,
)
from tspmcts.instances import BLOCK_ELEMS, DistanceMatrix, Instance, Metric, RankTable, nearest_neighbor_ranks
from tspmcts.mcts import MctsParams, MctsState, init_state, potential, visits, weight

from conftest import dm_and_ranks, heatmap_from_rows, start_weights, union_neighbors, write_heatmap


def reference_init_state(
    inst: Instance,
    dm: DistanceMatrix,
    ranks: RankTable,
    hm: Heatmap,
    params: MctsParams,
):
    """(candidates, cand_exp, rows, omega): ``rows[i]`` maps each union
    neighbor of i, in row order, to the edge's weight; ``omega[i]`` is the
    exactly rounded sum of that row."""
    n = inst.n
    if hm.n != n or dm.n != n or ranks.n != n:
        raise ValueError(f"dimension mismatch: instance n={n}, heatmap n={hm.n}, dm n={dm.n}")
    mcn = min(params.max_candidate_num, n - 1)
    prob_rows = [dict(hm.row(i)) for i in range(n)]
    dense = np.zeros(n)  # scratch row over all cities, zero between uses
    candidates: list[np.ndarray] = []
    cand_exp: list[np.ndarray] = []
    rows: list[dict[int, float]] = []
    for i in range(n):
        cols = list(prob_rows[i])
        dense[cols] = list(prob_rows[i].values())
        by_distance = ranks.rows[i]
        if params.use_heatmap:
            chosen = by_distance[np.argsort(-dense[by_distance], kind="stable")[:mcn]]
        else:
            chosen = by_distance[:mcn]
        p_own = dense[chosen]
        dense[cols] = 0.0
        candidates.append(chosen)
        cand_exp.append(np.exp(p_own))
        own = chosen.tolist()
        p_edge = [max(p, prob_rows[j].get(i, 0.0)) for j, p in zip(own, p_own.tolist())]
        rows.append({j: 100.0 * p if p > 0.0 else 1.0 for j, p in zip(own, p_edge)})
    for i in range(n):
        for j, w in list(rows[i].items())[: len(candidates[i])]:
            rows[j].setdefault(i, w)
    omega = [math.fsum(row.values()) for row in rows]
    return np.array(candidates), np.array(cand_exp), rows, omega


def observe(state: MctsState):
    """The same four things read off a state through its accessors."""
    rows = []
    for i in range(state.n):
        rows.append({j: weight(state, i, j) for j in union_neighbors(state, i).tolist()})
        assert len(rows[i]) == len(union_neighbors(state, i))  # no neighbor twice
    return state.candidates, start_weights(state), rows, [float(w) for w in state.omega]


def assert_same_state(got, want) -> None:
    """Candidates, start weights and union rows agree bit for bit; Omega
    within 1e-12 relative of the reference's exactly rounded sums."""
    assert len(got[0]) == len(want[0]) == len(got[2])
    for a, b in zip(got[:2], want[:2]):
        assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert [[(j, w.hex()) for j, w in row.items()] for row in got[2]] == \
        [[(j, w.hex()) for j, w in row.items()] for row in want[2]]
    assert np.all(np.abs(np.array(got[3]) - want[3]) <= 1e-12 * np.array(want[3]))


def assert_unvisited(state: MctsState, rows) -> None:
    """Q = 0 on every union edge, and with M = 1 every potential's explore
    term reads 1/sqrt(Q+1) = 1.0 exactly."""
    state.M = 1
    scale = state.params.alpha * math.sqrt(math.log(2))
    for i, row in enumerate(rows):
        inv_omega = 1.0 / float(state.omega[i])
        for j, w in row.items():
            assert visits(state, i, j) == 0
            assert potential(state, i, j).hex() == (w * inv_omega + scale * 1.0).hex()
    state.M = 0


#: n at which the number of scratch-block rows, BLOCK_ELEMS // n, crosses n.
SQUARE = math.isqrt(BLOCK_ELEMS)

#: (n, metric, heatmap): every n meets two heatmaps, every heatmap both metrics.
CASES = [
    (3, Metric.EUC2D_REAL, "prior"), (3, Metric.EUC2D_INT, "file"),
    (12, Metric.EUC2D_INT, "zero"), (12, Metric.EUC2D_REAL, "softdist"),
    (12, Metric.EUC2D_REAL, "file"), (12, Metric.EUC2D_INT, "prior"),
    (SQUARE - 1, Metric.EUC2D_REAL, "zero"), (SQUARE - 1, Metric.EUC2D_INT, "file"),
    (SQUARE, Metric.EUC2D_INT, "softdist"), (SQUARE, Metric.EUC2D_REAL, "prior"),
    (SQUARE + 1, Metric.EUC2D_REAL, "file"), (SQUARE + 1, Metric.EUC2D_INT, "prior"),
    (600, Metric.EUC2D_INT, "zero"), (600, Metric.EUC2D_REAL, "softdist"),
]
CASE_IDS = [f"n{n}-{m.name}-{k}" for n, m, k in CASES]


def asymmetric_file_heatmap(inst, ranks, tmp_path):
    """A heatmap read from a file: tied values, explicit zeros, one-way entries."""
    rng = np.random.default_rng(inst.n)
    rows = []
    for i in range(inst.n):
        near = ranks.rows[i][: min(8, inst.n - 1)]
        far = rng.choice(ranks.rows[i], size=min(3, inst.n - 1), replace=False)
        picked = dict.fromkeys(int(j) for j in np.concatenate((near, far)) if rng.random() < 0.7)
        rows.append([(j, float(rng.choice([0.0, 0.125, 0.25, 0.5, 1.0]))) for j in picked])
    path = tmp_path / "hm.txt"
    write_heatmap(heatmap_from_rows(inst.n, rows), path)
    return load_heatmap(path)


def case_inputs(n, metric, kind, tmp_path):
    """(instance, dm, full rank table, heatmap) of one case."""
    rng = np.random.default_rng(n)
    # A coarse grid at small n gives tied distances, hence tied ranks.
    pts = np.floor(rng.random((n, 2)) * 8) if n <= 12 else rng.random((n, 2)) * 1000
    inst = Instance(id="t", points=pts)
    dm, ranks = dm_and_ranks(inst, metric)
    if kind == "zero":
        hm = zero_heatmap(n)
    elif kind == "prior":
        hm = prior_to_heatmap(BUILTIN_PRIORS["tsp500"], ranks)
    elif kind == "softdist":
        hm = softdist_heatmap(dm, tau=0.05 * float(dm.rows(0, n).max()), k_keep=12)
    else:
        hm = asymmetric_file_heatmap(inst, ranks, tmp_path)
    return inst, dm, ranks, hm


@pytest.mark.parametrize("n, metric, kind", CASES, ids=CASE_IDS)
def test_matches_reference(n, metric, kind, tmp_path):
    inst, dm, ranks, hm = case_inputs(n, metric, kind, tmp_path)
    for mcn in (1, 5, 20, 1000):
        for use_heatmap in (True, False):
            params = MctsParams(max_candidate_num=mcn, use_heatmap=use_heatmap)
            state = init_state(inst, dm, ranks, hm, params, seed=n)
            want = reference_init_state(inst, dm, ranks, hm, params)
            got = observe(state)
            assert_same_state(got, want)
            assert_unvisited(state, got[2])
            assert state.rng.random() == random.Random(n).random()


STATE_ARRAYS = ("candidates", "cand_exp", "weights", "counts", "qinv", "omega")


@pytest.mark.parametrize("n, metric, kind", CASES, ids=CASE_IDS)
def test_truncated_table_builds_the_same_state(n, metric, kind, tmp_path):
    """mcn below, at and above the table width; prior, softdist and file heatmaps reach beyond it.
    Every array of the state agrees byte for byte with the full table's, and each state draws
    from ``random.Random(seed)``."""
    inst, dm, ranks, hm = case_inputs(n, metric, kind, tmp_path)
    narrow = [nearest_neighbor_ranks(dm, width) for width in (5, 20)]
    for mcn in (1, 5, 20, n - 1):
        for use_heatmap in (True, False):
            params = MctsParams(max_candidate_num=mcn, use_heatmap=use_heatmap)
            full = init_state(inst, dm, ranks, hm, params, seed=n)
            assert full.rng.random() == random.Random(n).random()
            want = [getattr(full, name) for name in STATE_ARRAYS]
            for table in narrow:
                got = init_state(inst, dm, table, hm, params, seed=n)
                for name, a in zip(STATE_ARRAYS, want):
                    b = getattr(got, name)
                    assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes()), name
                assert got.rng.random() == random.Random(n).random()
