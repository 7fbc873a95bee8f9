"""Heatmap-guided Monte Carlo tree search over k-opt moves.

The solver keeps an edge weight W_ij (initialized from the heatmap) and an
access count Q_ij on every candidate edge, and a move counter M. Candidate
moves are directed break/reconnect chains: starting from a random city, the
tour is opened into a path and repeatedly rewired toward the candidate
neighbor with the highest potential

    Z_ij = W_ij / Omega_i + alpha * sqrt(ln(M + 1) / (Q_ij + 1)),

then closed back into a cycle. Improving moves are applied and reinforce the
weights of their new edges; non-improving rounds, and moves that gain less
than ``IMPROVE_REL`` of the tour length, restart from a freshly sampled tour
while the best tour found so far is retained.

Chains are encoded on a path array where every reconnection is a prefix
reversal, so intermediate states are always Hamiltonian paths and no
reconnection can disconnect the tour.

The state is sparse: W and Q exist only on the candidate union, beside each
city's own candidates in (n, max_candidate_num) arrays; Omega_i sums every
union edge at i. Accepted-move bookkeeping skips a closing edge off the union.
"""
from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .heatmaps import Heatmap, entry_rows, row_pointers
from .instances import BLOCK_ELEMS, DistanceMatrix, Instance, RankTable, nearest_in_rows
from .tours import SolveResult, Tour, canonical_order, tour_length

#: Lower bound kept on every candidate-edge weight so row sums stay positive.
W_FLOOR = 1e-6
#: A move is accepted only if it shortens the tour by more than this share of its length:
#: a smaller change is floating-point noise in the accumulated deltas.
IMPROVE_REL = 1e-12


class DegenerateRowError(ValueError):
    """Raised when a city's weight row sums to zero (no usable candidates)."""


@dataclass(frozen=True)
class MctsParams:
    """Solver hyperparameters; defaults follow the conventional settings."""

    alpha: float = 1.0
    beta: float = 10.0
    max_depth: int = 10
    max_candidate_num: int = 1000
    param_h: int = 10
    use_heatmap: bool = True

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError(f"alpha must be finite and non-negative, got {self.alpha}")
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be finite and positive, got {self.beta}")
        for name in ("max_depth", "max_candidate_num", "param_h"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass(frozen=True)
class Budget:
    """Either wall-clock seconds per city or a deterministic simulation cap."""

    mode: str  # "wall" | "iters"
    value: float

    def __post_init__(self) -> None:
        if self.mode not in ("wall", "iters"):
            raise ValueError(f"budget mode must be 'wall' or 'iters', got {self.mode!r}")
        if not (math.isfinite(self.value) and self.value > 0):
            raise ValueError(f"budget value must be finite and positive, got {self.value}")


@dataclass(frozen=True)
class Move:
    """A k-opt move: the rewired tour, its exact length change, edge diff."""

    new_order: np.ndarray
    delta: float
    added: tuple[tuple[int, int], ...]
    removed: tuple[tuple[int, int], ...]


@dataclass
class MctsState:
    """Mutable search state owned by a single solver run.

    W, Q and 1/sqrt(Q+1) are (n, mcn) arrays aligned with ``candidates``: edge (i, j)
    has a slot in row i if j is i's candidate and in row j if i is j's, with equal
    values. ``omega[i]`` sums W over every union edge at i; the mutators keep slots and omegas in sync."""

    n: int
    dm: DistanceMatrix
    params: MctsParams
    rng: random.Random
    M: int
    candidates: np.ndarray  # (n, mcn) int32, each row in candidate order
    cand_exp: np.ndarray  # (n, kh), exp(P_ij) of each row's first kh candidates; 1.0 beyond
    weights: np.ndarray  # (n, mcn) float64, aligned with candidates
    counts: np.ndarray  # (n, mcn) int32
    qinv: np.ndarray  # (n, mcn) float64
    omega: np.ndarray  # (n,) float64
    best_order: Optional[np.ndarray] = None
    best_length: float = math.inf
    restarts: int = 0
    simulations: int = 0
    noise_rejects: int = 0

    @cached_property
    def views(self) -> tuple[memoryview, ...]:
        """Flat views of weights, qinv, omega and counts for scalar loops, whose
        items are Python numbers: faster than numpy scalars."""
        arrays = (self.weights, self.qinv, self.omega, self.counts)
        return tuple(memoryview(a.reshape(-1)) for a in arrays)


def _scatter_rows(block: np.ndarray, lo: int, hi: int, indptr, row_of, cols, vals) -> None:
    """Write the CSR entries of rows lo..hi-1 into ``block``, row lo at index 0."""
    a, b = indptr[lo], indptr[hi]
    block[row_of[a:b] - lo, cols[a:b]] = vals[a:b]


def _omega(chosen: np.ndarray, own_w: np.ndarray) -> np.ndarray:
    """Each city's weight sum over its union edges: its own row, plus the one-way entries of the cities holding it."""
    n, mcn = chosen.shape
    omega = own_w.sum(axis=1)
    if mcn >= n - 1:
        return omega  # every row holds every other city: each edge is mutual
    step = max(1, BLOCK_ELEMS // mcn)
    # The one n * mcn temporary: entry (i, j) as the key i * n + j, each row sorted, so ascending overall.
    keys = np.empty((n, mcn), dtype=np.int64)
    for lo in range(0, n, step):
        keys[lo : lo + step] = np.sort(chosen[lo : lo + step], axis=1) + np.arange(lo, min(lo + step, n))[:, None] * n
    keys = keys.ravel()
    for lo in range(0, n, step):
        cols = chosen[lo : lo + step].ravel()
        back = cols * np.int64(n) + np.arange(lo, lo + cols.size // mcn).repeat(mcn)  # the key of (j, i)
        # Looked up in ascending order, the searches walk ``keys`` front to back: several times faster.
        by_key = np.argsort(back)
        back = back[by_key]
        by_key = by_key[keys[np.searchsorted(keys, back).clip(max=keys.size - 1)] != back]  # j does not hold i
        omega += np.bincount(cols[by_key], weights=own_w[lo : lo + step].ravel()[by_key], minlength=n)
    return omega


def _candidate_rows(dm: DistanceMatrix, ranks: RankTable, hm: Heatmap, params: MctsParams,
                    mcn: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(candidates, exp(P) head, W) of every city, built one scratch block of rows at a time."""
    n = dm.n
    step = min(max(1, BLOCK_ELEMS // n), n)
    scratch = np.zeros((step, n))  # dense rows over all cities, zero between uses
    hm_rows = entry_rows(hm.indptr)
    by_col = np.argsort(hm.cols, kind="stable")
    forward = (hm.indptr, hm_rows, hm.cols, hm.probs)  # P[i, j] in row i
    transposed = (row_pointers(np.bincount(hm.cols, minlength=n)), hm.cols[by_col], hm_rows[by_col],
                  hm.probs[by_col])  # P[j, i] in row i
    row_starts = np.arange(0, scratch.size, n)[:, None]
    positives = np.bincount(hm_rows[hm.probs > 0.0], minlength=n)
    chosen = np.empty((n, mcn), dtype=np.int32)
    own_w = np.empty((n, mcn))

    def choose(block: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """The candidates of rows lo..hi-1, whose P ``block`` holds."""
        by_distance = ranks.rows[lo:hi]
        if ranks.width < n - 1:
            # Positive heatmap entries per row that the truncated table holds.
            held = (np.take(block.ravel(), by_distance + row_starts[: hi - lo]) > 0.0).sum(axis=1)
            if mcn > ranks.width or params.use_heatmap and (held < positives[lo:hi]).any():
                by_distance = nearest_in_rows(dm.rows(lo, hi), np.arange(lo, hi), n - 1)
        if not params.use_heatmap:
            return by_distance[:, :mcn]
        # block[r, by_distance[r]] as one flat take, about twice as fast as take_along_axis.
        p_ranked = np.take(block.ravel(), by_distance + row_starts[: hi - lo])
        return np.take_along_axis(by_distance, np.argsort(-p_ranked, axis=1, kind="stable")[:, :mcn], axis=1)

    def fill(lo: int, hi: int) -> np.ndarray:
        """Rows lo..hi-1 of ``chosen`` and ``own_w``; returns their exp(P) up to the last P != 0.
        ``choose`` and ``fill`` are functions so that their temporaries are freed on return."""
        block = scratch[: hi - lo]
        _scatter_rows(block, lo, hi, *forward)
        chosen[lo:hi] = choose(block, lo, hi)
        p_own = np.take_along_axis(block, chosen[lo:hi], axis=1)
        block.fill(0.0)
        _scatter_rows(block, lo, hi, *transposed)
        p_edge = np.take_along_axis(block, chosen[lo:hi], axis=1)
        block.fill(0.0)
        np.maximum(p_own, p_edge, out=p_edge)
        own_w[lo:hi] = np.where(p_edge > 0.0, 100.0 * p_edge, 1.0)
        width = int(np.nonzero(p_own)[1].max(initial=-1)) + 1  # columns up to the last P != 0
        return np.exp(p_own)[:, :width]

    cand_exp = np.ones((n, 0))
    for lo in range(0, n, step):
        head = fill(lo, min(lo + step, n))
        if (grow := head.shape[1] - cand_exp.shape[1]) > 0:
            cand_exp = np.pad(cand_exp, ((0, 0), (0, grow)), constant_values=1.0)
        cand_exp[lo : lo + len(head), : head.shape[1]] = head
    return chosen, cand_exp, own_w


def init_state(
    inst: Instance,
    dm: DistanceMatrix,
    ranks: RankTable,
    hm: Heatmap,
    params: MctsParams,
    seed: int,
) -> MctsState:
    """Build candidate sets and initialize W = 100 * P on candidate edges.

    Candidates are the ``max_candidate_num`` neighbors with the highest
    heatmap probability (ties and absent entries fall back to ascending
    distance); with ``use_heatmap`` off they are simply the nearest
    neighbors. An edge gets the larger heatmap value of its two directions;
    edges whose value is zero get weight 1.0 so that every weight row keeps
    positive mass. exp(P) is stored up to the last column in which any row
    has P != 0 (kh columns); beyond it every candidate's exp(P) is exactly 1.0.

    The choice is read off the rank table, which ``prepare`` makes as wide as
    a prior heatmap reads. A block of rows a truncated table cannot decide
    (``max_candidate_num`` exceeds it, or file or softdist mass lies beyond
    it) is ranked in full from ``dm.rows``, and the ranking dropped.

    Rows are processed in blocks over one dense scratch block of about
    ``BLOCK_ELEMS`` entries, freed before Omega is summed from the (n, mcn)
    arrays, so the temporaries beyond the O(n * mcn) state are
    O(BLOCK_ELEMS) plus one (n, mcn) int64 index.
    """
    n = inst.n
    if hm.n != n or dm.n != n or ranks.n != n:
        raise ValueError(f"dimension mismatch: instance n={n}, heatmap n={hm.n}, dm n={dm.n}")
    mcn = min(params.max_candidate_num, n - 1)
    chosen, cand_exp, own_w = _candidate_rows(dm, ranks, hm, params, mcn)
    omega = _omega(chosen, own_w)  # first: its n * mcn key index is freed before Q is allocated
    return MctsState(
        n=n,
        dm=dm,
        params=params,
        rng=random.Random(seed),
        M=0,
        candidates=chosen,
        cand_exp=cand_exp,
        weights=own_w,
        counts=np.zeros((n, mcn), dtype=np.int32),
        qinv=np.ones((n, mcn)),  # 1/sqrt(Q+1) with Q = 0
        omega=omega,
    )


def _slots_of(state: MctsState, edges) -> list[tuple[int, ...]]:
    """Each edge's flat slots, in one pass: (row i's, row j's) if (i, j) is mutual, one if one-way,
    none off the candidate union."""
    mcn = state.candidates.shape[1]
    ends = np.array(edges, dtype=np.intp).reshape(-1, 2)
    hit = state.candidates[ends] == ends[:, ::-1, None]  # [e, 0]: row i holds j; [e, 1]: row j holds i
    flat = np.where(hit.any(axis=2), ends * mcn + hit.argmax(axis=2), -1).tolist()  # a row holds a city once
    return [(s, t) if s >= 0 and t >= 0 else (s,) if s >= 0 else (t,) if t >= 0 else () for s, t in flat]


def weight(state: MctsState, i: int, j: int) -> float:
    """W_ij; zero off the candidate union."""
    return state.views[0][slots[0]] if (slots := _slots_of(state, [(i, j)])[0]) else 0.0


def visits(state: MctsState, i: int, j: int) -> int:
    """Q_ij; zero off the candidate union."""
    return state.views[3][slots[0]] if (slots := _slots_of(state, [(i, j)])[0]) else 0


def _write_weight(views, i: int, j: int, slots: tuple[int, ...], w: float) -> None:
    """W = w at the slots of edge (i, j), keeping omega in sync at both ends."""
    weights, omega = views[0], views[2]
    change = w - weights[slots[0]]
    for t in slots:
        weights[t] = w
    omega[i] += change
    omega[j] += change


def _count_access(views, slots: tuple[int, ...]) -> None:
    """One more access at the slots of an edge: Q and 1/sqrt(Q+1)."""
    q = views[3][slots[0]] + 1
    for t in slots:
        views[3][t], views[1][t] = q, 1.0 / math.sqrt(q + 1.0)


def _explore_scale(state: MctsState) -> float:
    """alpha * sqrt(ln(M + 1)); exactly 0.0 when alpha = 0 or M = 0."""
    return state.params.alpha * math.sqrt(math.log(state.M + 1))


def _z(w, omega: float, sl: float, qinv):
    """Z = W / Omega + sl / sqrt(Q + 1) of entries of one row, as floats or arrays alike."""
    if omega <= 0.0:
        raise DegenerateRowError("a weight row sums to zero")
    return w * (1.0 / omega) + sl * qinv


def potential(state: MctsState, i: int, j: int) -> float:
    """The UCB-style edge potential Z_ij of a union edge, as chains score it."""
    if not (slots := _slots_of(state, [(i, j)])[0]):
        raise KeyError(f"({i}, {j}) is not a candidate-union edge")
    weights, qinv, omega, _ = state.views
    return _z(weights[slots[0]], omega[i], _explore_scale(state), qinv[slots[0]])


def _target_picker(state: MctsState) -> Callable[[int, int, int], int]:
    """``pick(head, a, p1)``: head's own candidate of highest potential other than ``a`` and ``p1``
    (the first in candidate order among ties; -1 if none), for the chains of one decision, with W, Q, M fixed.

    Each head's row is scored once. Its best candidates, in (Z descending, candidate order), are
    taken from the scores as picks need them: with at most two cities excluded, never more than three."""
    sl = _explore_scale(state)
    omega = state.views[2]
    rows: dict[int, tuple[np.ndarray, list[int]]] = {}

    def pick(head: int, a: int, p1: int) -> int:
        if (row := rows.get(head)) is None:
            row = rows[head] = _z(state.weights[head], omega[head], sl, state.qinv[head]), []  # a fresh array
        z, best = row
        for j in best:
            if j != a and j != p1:
                return j
        while len(best) < z.size:
            t = int(z.argmax())  # the first of tied maxima
            z[t] = -math.inf
            best.append(j := int(state.candidates[head, t]))
            if j != a and j != p1:
                return j
        return -1

    return pick


def sample_initial_tour(state: MctsState) -> Tour:
    """Grow a tour from a random start, sampling successors by exp(P_ij).

    When no unvisited candidate remains the nearest unvisited city is used,
    which guarantees completion.
    """
    n = state.n
    visited = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.int32)
    row_exp = np.ones(state.candidates.shape[1])  # exp(P) of one row: its stored head, then 1.0
    head = row_exp[: state.cand_exp.shape[1]]
    current = state.rng.randrange(n)
    order[0] = current
    visited[current] = True
    for t in range(1, n):
        cands = state.candidates[current]
        open_mask = ~visited[cands]
        if open_mask.any():
            choices = cands[open_mask]
            head[...] = state.cand_exp[current]
            cum = np.cumsum(row_exp[open_mask])
            nxt = int(choices[np.searchsorted(cum, state.rng.random() * cum[-1], side="right")])
        else:
            # The nearest unvisited city; argmin takes the first, smallest-index, of ties.
            open_cities = np.flatnonzero(~visited)
            nxt = int(open_cities[np.argmin(state.dm.edges(current, open_cities))])
        order[t] = nxt
        visited[nxt] = True
        current = nxt
    length = float(state.dm.edges(order, np.roll(order, -1)).sum())
    tour = Tour(order=order, length=length)
    if length < state.best_length:
        state.best_order = np.array(order)
        state.best_length = length
    return tour


def _sample_chain(
    state: MctsState, pick: Callable[[int, int, int], int], order_list: list[int], a: int, break_succ: bool
) -> Optional[tuple[float, list[int], list[tuple[int, int]], list[tuple[int, int]]]]:
    """Run one greedy break/reconnect chain from city ``a``; ``pick`` chooses each reconnection.

    Opens the tour at one of a's edges, repeatedly reconnects the path head
    to its best-potential candidate (the break at the chosen city is forced,
    making the step a prefix reversal), and evaluates closing the path back
    to ``a`` after every reconnection. Returns the best closing found as
    (delta, order, added, removed), or None if no valid reconnection exists.
    Cities are found with ``list.index``: a scan in C costs less than keeping a table of positions.
    """
    dist = state.dm.pair
    # Path from the freed neighbor back to a, walking away from the cut.
    seq = order_list if break_succ else order_list[::-1]
    ia = seq.index(a)
    path = seq[ia + 1 :] + seq[: ia + 1]
    b1 = path[0]
    removed: list[tuple[int, int]] = [(a, b1)]
    added: list[tuple[int, int]] = []
    removed_sum = dist(a, b1)
    added_sum = 0.0
    best: Optional[tuple[float, list[int], list, list]] = None
    for _ in range(state.params.max_depth):
        head = path[0]
        target = pick(head, a, path[1])
        if target < 0:
            break
        idx = path.index(target)  # at least 2: ``pick`` skips a and path[1]
        b_next = path[idx - 1]
        added.append((head, target))
        removed.append((target, b_next))
        added_sum += dist(head, target)
        removed_sum += dist(target, b_next)
        path[:idx] = path[idx - 1 :: -1]
        close_delta = added_sum + dist(path[0], a) - removed_sum
        if best is None or close_delta < best[0]:
            best = (close_delta, path.copy(), added + [(path[0], a)], removed.copy())
    return best


def generate_kopt_move(state: MctsState, tour: Tour) -> Optional[Move]:
    """Sample ``param_h`` chains from random start cities; keep the best.

    Each simulation draws one value that decides both the start city and
    which of its two tour edges is broken first.
    """
    n = state.n
    order_list = tour.order.tolist()
    pick = _target_picker(state)
    best: Optional[tuple[float, list[int], list, list]] = None
    for _ in range(state.params.param_h):
        state.simulations += 1
        draw = state.rng.randrange(2 * n)
        a = draw >> 1
        chain = _sample_chain(state, pick, order_list, a, bool(draw & 1))
        if chain is not None and (best is None or chain[0] < best[0]):
            best = chain
    if best is None:
        return None
    delta, new_order, added, removed = best
    return Move(np.array(new_order, dtype=np.int32), delta, tuple(added), tuple(removed))


def _increment(state: MctsState, l_old: float, l_new: float) -> float:
    """beta * (exp((L - L') / L) - 1): what a move from L to L' adds to the weight of each new edge."""
    if l_old <= 0:
        raise ValueError("weight_update needs a positive previous length")
    return state.params.beta * math.expm1((l_old - l_new) / l_old)


def _reinforce(views, i: int, j: int, slots: tuple[int, ...], increment: float) -> None:
    """W = max(W + increment, W_FLOOR) at the slots of edge (i, j)."""
    _write_weight(views, i, j, slots, max(views[0][slots[0]] + increment, W_FLOOR))


def weight_update(state: MctsState, i: int, j: int, l_old: float, l_new: float) -> None:
    """Reinforce edge (i, j) by beta * (exp((L - L') / L) - 1), floored; no-op off the union."""
    increment = _increment(state, l_old, l_new)
    if slots := _slots_of(state, [(i, j)])[0]:
        _reinforce(state.views, i, j, slots, increment)


def accept_or_restart(state: MctsState, tour: Tour, move: Optional[Move]) -> Tour:
    """Apply a move that shortens the tour by more than ``IMPROVE_REL`` of its length (with
    bookkeeping), or restart from a sample; a smaller gain counts as a noise reject."""
    if move is not None and move.delta < -IMPROVE_REL * tour.length:
        new_length = tour.length + move.delta
        state.M += 1
        increment, views = _increment(state, tour.length, new_length), state.views
        # Slots are fixed; values are not: edges are applied one by one, so an edge both
        # removed and added (a chain may undo its own step) is counted twice, in order.
        slots = _slots_of(state, move.removed + move.added)
        for edge_slots in slots[: len(move.removed)]:
            if edge_slots:
                _count_access(views, edge_slots)
        for (i, j), edge_slots in zip(move.added, slots[len(move.removed) :]):
            if edge_slots:
                _count_access(views, edge_slots)
                _reinforce(views, i, j, edge_slots, increment)
        new_tour = Tour(order=move.new_order, length=new_length)
        if new_length < state.best_length:
            state.best_order = np.array(move.new_order)
            state.best_length = new_length
        return new_tour
    state.noise_rejects += move is not None and move.delta < 0.0
    state.restarts += 1
    return sample_initial_tour(state)


def solve(
    inst: Instance,
    dm: DistanceMatrix,
    ranks: RankTable,
    hm: Heatmap,
    params: MctsParams,
    seed: int,
    budget: Budget,
) -> SolveResult:
    """Run the improve/restart loop until the budget is spent.

    A wall budget allows ``budget.value * n`` seconds. An iters budget stops
    once ``int(budget.value)`` k-opt chain simulations have been spent, which
    makes results bit-reproducible for a fixed seed regardless of machine
    speed.
    """
    start = time.monotonic()
    state = init_state(inst, dm, ranks, hm, params, seed)
    tour = sample_initial_tour(state)
    wall, deadline, max_iters = budget.mode == "wall", start + budget.value * inst.n, int(budget.value)
    while time.monotonic() < deadline if wall else state.simulations < max_iters:
        move = generate_kopt_move(state, tour)
        tour = accept_or_restart(state, tour, move)
    # Summed from the canonical order, not accumulated from deltas: equal tours report equal lengths.
    best = canonical_order(state.best_order)
    return SolveResult(
        best_tour=Tour(order=best, length=tour_length(best, dm)),
        wall_time=time.monotonic() - start,
        restarts=state.restarts,
        moves_accepted=state.M,
        simulations=state.simulations,
        noise_rejects=state.noise_rejects,
    )
