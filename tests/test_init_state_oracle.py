"""The array-built ``init_state`` against the per-row loop it replaced.

``reference_init_state`` is that implementation, kept as a test-only oracle
for one release. Both are compared through the public accessors, so the
check does not depend on how ``MctsState`` stores its rows: the candidate
arrays byte for byte, the union row of every city in order, the bits of
every union edge's weight and of every row sum, zero visits everywhere, and
every potential at M = 1, which reads 1/sqrt(Q+1).
"""
import math

import numpy as np
import pytest

from tspmcts.heatmaps import (
    BUILTIN_PRIORS,
    Heatmap,
    load_heatmap,
    make_heatmap,
    prior_to_heatmap,
    save_heatmap,
    softdist_heatmap,
    zero_heatmap,
)
from tspmcts.instances import BLOCK_ELEMS, DistanceMatrix, Instance, Metric, RankTable, nearest_neighbor_ranks
from tspmcts.mcts import MctsParams, MctsState, init_state, potential, visits, weight

from conftest import dm_and_ranks, start_weights, union_neighbors


def reference_init_state(
    inst: Instance,
    dm: DistanceMatrix,
    ranks: RankTable,
    hm: Heatmap,
    params: MctsParams,
):
    """(candidates, cand_exp, rows, omega): ``rows[i]`` maps each union
    neighbor of i, in row order, to the edge's weight."""
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
        by_distance = ranks.row(i)
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
    omega = []
    for row in rows:
        # Summed over a full-length row: numpy's pairwise summation then
        # rounds exactly as for a dense n x n weight matrix.
        dense[list(row)] = list(row.values())
        omega.append(float(dense.sum()))
        dense[list(row)] = 0.0
    return np.array(candidates), np.array(cand_exp), rows, omega


def observe(state: MctsState):
    """The same four things read off a state through its accessors."""
    rows = []
    for i in range(state.n):
        rows.append({j: weight(state, i, j) for j in union_neighbors(state, i).tolist()})
        assert len(rows[i]) == len(union_neighbors(state, i))  # no neighbor twice
    return state.candidates, start_weights(state), rows, [float(w) for w in state.omega]


def assert_same_state(got, want) -> None:
    """Two (candidates, cand_exp, rows, omega) tuples agree bit for bit."""
    assert len(got[0]) == len(want[0]) == len(got[2])
    for a, b in zip(got[:2], want[:2]):
        assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert [[(j, w.hex()) for j, w in row.items()] for row in got[2]] == \
        [[(j, w.hex()) for j, w in row.items()] for row in want[2]]
    assert [w.hex() for w in got[3]] == [w.hex() for w in want[3]]


def assert_unvisited(state: MctsState, rows, omega) -> None:
    """Q = 0 on every union edge, and with M = 1 every potential's explore
    term reads 1/sqrt(Q+1) = 1.0 exactly."""
    state.M = 1
    scale = state.params.alpha * math.sqrt(math.log(2))
    for i, row in enumerate(rows):
        for j, w in row.items():
            assert visits(state, i, j) == 0
            assert potential(state, i, j).hex() == (w * (1.0 / omega[i]) + scale * 1.0).hex()
    state.M = 0


#: n at which the number of scratch-block rows, BLOCK_ELEMS // n, crosses n.
SQUARE = math.isqrt(BLOCK_ELEMS)


def asymmetric_file_heatmap(inst, ranks, tmp_path):
    """A heatmap read from a file: tied values, explicit zeros, one-way entries."""
    rng = np.random.default_rng(inst.n)
    rows = []
    for i in range(inst.n):
        near = ranks.row(i)[: min(8, inst.n - 1)]
        far = rng.choice(ranks.row(i), size=min(3, inst.n - 1), replace=False)
        picked = dict.fromkeys(int(j) for j in np.concatenate((near, far)) if rng.random() < 0.7)
        rows.append([(j, float(rng.choice([0.0, 0.125, 0.25, 0.5, 1.0]))) for j in picked])
    path = tmp_path / "hm.txt"
    save_heatmap(make_heatmap(inst.n, rows), path)
    return load_heatmap(path)


def build_heatmap(kind, inst, dm, ranks, tmp_path):
    if kind == "zero":
        return zero_heatmap(inst.n)
    if kind == "prior":
        return prior_to_heatmap(BUILTIN_PRIORS["tsp500"], ranks)
    if kind == "softdist":
        return softdist_heatmap(dm, tau=0.05 * float(dm.entries.max()), k_keep=12)
    return asymmetric_file_heatmap(inst, ranks, tmp_path)


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


def case_inputs(n, metric, kind, tmp_path):
    rng = np.random.default_rng(n)
    # A coarse grid at small n gives tied distances, hence tied ranks.
    pts = np.floor(rng.random((n, 2)) * 8) if n <= 12 else rng.random((n, 2)) * 1000
    inst = Instance(id="t", points=pts)
    dm, ranks = dm_and_ranks(inst, metric)
    return inst, dm, ranks, build_heatmap(kind, inst, dm, ranks, tmp_path)


@pytest.mark.parametrize("n, metric, kind", CASES, ids=CASE_IDS)
def test_matches_reference(n, metric, kind, tmp_path):
    inst, dm, ranks, hm = case_inputs(n, metric, kind, tmp_path)
    for mcn in (1, 5, 20, 1000):
        for use_heatmap in (True, False):
            params = MctsParams(max_candidate_num=mcn, use_heatmap=use_heatmap)
            state = init_state(inst, dm, ranks, hm, params, seed=n)
            want = reference_init_state(inst, dm, ranks, hm, params)
            assert_same_state(observe(state), want)
            assert_unvisited(state, want[2], want[3])
            assert state.rng.random() == np.random.default_rng(n).random()


@pytest.mark.parametrize("n, metric, kind", CASES, ids=CASE_IDS)
def test_truncated_table_builds_the_same_state(n, metric, kind, tmp_path):
    """mcn below, at and above the table width; prior, softdist and file heatmaps reach beyond it."""
    inst, dm, ranks, hm = case_inputs(n, metric, kind, tmp_path)
    narrow = [nearest_neighbor_ranks(dm, width) for width in (5, 20)]
    for mcn in (1, 5, 20, 1000):
        for use_heatmap in (True, False):
            params = MctsParams(max_candidate_num=mcn, use_heatmap=use_heatmap)
            want = observe(init_state(inst, dm, ranks, hm, params, seed=n))
            for table in narrow:
                got = init_state(inst, dm, table, hm, params, seed=n)
                assert_same_state(observe(got), want)
                assert got.rng.random() == np.random.default_rng(n).random()
