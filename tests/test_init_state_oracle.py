"""The array-built ``init_state`` against the per-row loop it replaced.

``reference_init_state`` is the previous implementation, kept verbatim as a
test-only oracle for one release; both must build the same state field for
field, down to the bits of every weight and row sum.
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
from tspmcts.mcts import MctsParams, MctsState, init_state

from conftest import dm_and_ranks


def reference_init_state(
    inst: Instance,
    dm: DistanceMatrix,
    ranks: RankTable,
    hm: Heatmap,
    params: MctsParams,
    seed: int,
) -> MctsState:
    n = inst.n
    if hm.n != n or dm.n != n or ranks.n != n:
        raise ValueError(f"dimension mismatch: instance n={n}, heatmap n={hm.n}, dm n={dm.n}")
    mcn = min(params.max_candidate_num, n - 1)
    prob_rows = [dict(hm.row(i)) for i in range(n)]
    dense = np.zeros(n)  # scratch row over all cities, zero between uses
    candidates: list[np.ndarray] = []
    cand_exp: list[np.ndarray] = []
    nbrs: list[list[int]] = []
    weights: list[list[float]] = []
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
        nbrs.append(own)
        weights.append([100.0 * p if p > 0.0 else 1.0 for p in p_edge])
    slot = [{j: t for t, j in enumerate(row)} for row in nbrs]
    for i in range(n):
        own = len(candidates[i])
        for j, w in zip(nbrs[i][:own], weights[i][:own]):
            if i not in slot[j]:
                slot[j][i] = len(nbrs[j])
                nbrs[j].append(i)
                weights[j].append(w)
    omega = []
    for row, w in zip(nbrs, weights):
        # Summed over a full-length row: numpy's pairwise summation then
        # rounds exactly as for a dense n x n weight matrix.
        dense[row] = w
        omega.append(float(dense.sum()))
        dense[row] = 0.0
    return MctsState(
        n=n,
        dm=dm,
        params=params,
        rng=np.random.default_rng(seed),
        M=0,
        candidates=np.array(candidates),
        cand_exp=np.array(cand_exp),
        nbrs=nbrs,
        slot=slot,
        weights=weights,
        counts=[[0] * len(row) for row in nbrs],
        qinv=[[1.0] * len(row) for row in nbrs],  # 1/sqrt(Q+1) with Q = 0
        omega=omega,
    )


def assert_same_state(got: MctsState, want: MctsState) -> None:
    assert got.n == want.n
    assert len(got.candidates) == len(want.candidates) == got.n
    for a, b in ((got.candidates, want.candidates), (got.cand_exp, want.cand_exp)):
        assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert got.nbrs == want.nbrs
    assert got.slot == want.slot
    assert [[w.hex() for w in row] for row in got.weights] == [[w.hex() for w in row] for row in want.weights]
    assert [w.hex() for w in got.omega] == [w.hex() for w in want.omega]
    assert got.counts == want.counts
    assert got.qinv == want.qinv
    assert got.rng.random() == want.rng.random()


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
            got = init_state(inst, dm, ranks, hm, params, seed=n)
            want = reference_init_state(inst, dm, ranks, hm, params, seed=n)
            assert_same_state(got, want)


@pytest.mark.parametrize("n, metric, kind", CASES, ids=CASE_IDS)
def test_truncated_table_builds_the_same_state(n, metric, kind, tmp_path):
    """mcn below, at and above the table width; prior, softdist and file heatmaps reach beyond it."""
    inst, dm, ranks, hm = case_inputs(n, metric, kind, tmp_path)
    for width in (5, 20):
        narrow = nearest_neighbor_ranks(dm, width)
        for mcn in (1, 5, 20, 1000):
            for use_heatmap in (True, False):
                params = MctsParams(max_candidate_num=mcn, use_heatmap=use_heatmap)
                got = init_state(inst, dm, narrow, hm, params, seed=n)
                want = init_state(inst, dm, ranks, hm, params, seed=n)
                assert_same_state(got, want)
