"""Outside-in tracer for one run of the tspmcts CLI in the current process.

The tracer replaces public functions in the namespace where their callers
look them up, so ``src/`` stays untouched:

* ``tspmcts.evalkit`` imports ``distance_matrix``, ``nearest_neighbor_ranks``,
  ``solve`` and ``exact_solve`` by name, so they are patched there, not in
  their home modules;
* ``tspmcts.heatmaps`` holds the heatmap builders the heatmap sources call;
* ``tspmcts.mcts`` holds ``init_state`` and the hot search calls;
* ``tspmcts.cli`` and ``tspmcts.tuner`` hold ``run_benchmark`` (one call per
  evaluated configuration) and the Shapley functions.

Per-instance calls become spans (name, start, end, parent). The hot search
calls (``generate_kopt_move``, ``accept_or_restart``, ``sample_initial_tour``)
only add to counters, so the trace stays small. Everything is held in memory
and written out by ``dump`` at the end. The wrappers read arguments and
results but draw no random numbers, so a traced run follows exactly the
trajectory of an untraced one.
"""
from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

import numpy as np

perf = time.perf_counter

#: Accepted moves with -NOISE_REL * L <= delta < 0 improve the tour only by
#: floating-point noise.
NOISE_REL = 1e-12
#: Relative tolerance between a reported best length and its recomputation.
LENGTH_REL_TOL = 1e-9

#: (module, attribute, span name) for every per-instance call that gets a span.
SPANNED = (
    ("tspmcts.evalkit", "distance_matrix", "instances.distance_matrix"),
    ("tspmcts.evalkit", "nearest_neighbor_ranks", "instances.ranks"),
    ("tspmcts.evalkit", "exact_solve", "tours.exact_solve"),
    ("tspmcts.evalkit", "solve", "mcts.solve"),
    ("tspmcts.heatmaps", "prior_to_heatmap", "heatmaps.build"),
    ("tspmcts.heatmaps", "zero_heatmap", "heatmaps.build"),
    ("tspmcts.heatmaps", "softdist_heatmap", "heatmaps.build"),
    ("tspmcts.heatmaps", "load_heatmap", "heatmaps.build"),
    ("tspmcts.mcts", "init_state", "mcts.init_state"),
    ("tspmcts.cli", "run_benchmark", "evalkit.run_benchmark"),
    ("tspmcts.tuner", "run_benchmark", "evalkit.run_benchmark"),
    ("tspmcts.tuner", "shapley_importance", "tuner.shapley"),
    ("tspmcts.tuner", "shapley_for_all_configs", "tuner.shapley"),
)


class Tracer:
    """Spans and counters for one traced run; create one per run."""

    def __init__(self, corrupt_length: bool = False) -> None:
        #: Self-test only: check the first best tour against a length off by
        #: one, as a solver misreporting its length would.
        self.corrupt_length = corrupt_length
        # Each span is [name, start, end, parent index, time covered by children].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._hot_depth = 0
        self.kopt_calls = 0
        self.kopt_s = 0.0
        self.sample_calls = 0
        self.sample_s = 0.0
        self.accept_self_s = 0.0
        self.decisions = 0
        self.accepted = 0
        self.noise_accepts = 0
        self.restarts = 0
        self.restart_s = 0.0
        self.descent_end_lengths: list[float] = []
        self.sims = 0
        self.instance_ids: set[str] = set()
        self.instance_bytes = 0
        # Bad best tours, keyed by the enclosing run_benchmark span (one
        # run_benchmark call per evaluated configuration).
        self.bad_solves: dict[int, int] = {}

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn, name, observe=None):
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            rec = [name, perf(), 0.0, parent, 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            result = fn(*args, **kwargs)
            rec[2] = perf()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent][4] += rec[2] - rec[1]
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _charge_hot(self, seconds: float) -> None:
        """Count an outermost hot call against the enclosing span's children."""
        if self._hot_depth == 0 and self._stack:
            self.spans[self._stack[-1]][4] += seconds

    def _wrap_kopt(self, fn):
        def generate_kopt_move(*args, **kwargs):
            t0 = perf()
            self._hot_depth += 1
            move = fn(*args, **kwargs)
            self._hot_depth -= 1
            dt = perf() - t0
            self.kopt_calls += 1
            self.kopt_s += dt
            self._charge_hot(dt)
            return move

        return generate_kopt_move

    def _wrap_sample(self, fn):
        def sample_initial_tour(*args, **kwargs):
            t0 = perf()
            self._hot_depth += 1
            tour = fn(*args, **kwargs)
            self._hot_depth -= 1
            dt = perf() - t0
            self.sample_calls += 1
            self.sample_s += dt
            self._charge_hot(dt)
            return tour

        return sample_initial_tour

    def _wrap_accept(self, fn):
        def accept_or_restart(state, tour, move, *args, **kwargs):
            calls_before = self.sample_calls
            sample_before = self.sample_s
            t0 = perf()
            self._hot_depth += 1
            new_tour = fn(state, tour, move, *args, **kwargs)
            self._hot_depth -= 1
            dt = perf() - t0
            inner = self.sample_s - sample_before
            self.accept_self_s += dt - inner
            self.decisions += 1
            # A decision restarted iff it sampled a fresh tour.
            if self.sample_calls > calls_before:
                self.restarts += 1
                self.restart_s += inner
                self.descent_end_lengths.append(float(tour.length))
            else:
                self.accepted += 1
                if -NOISE_REL * tour.length <= move.delta < 0.0:
                    self.noise_accepts += 1
            self._charge_hot(dt)
            return new_tour

        return accept_or_restart

    # -- observers --------------------------------------------------------

    def _saw_distances(self, args, dm) -> None:
        self.instance_ids.add(args[0].id)

    def _saw_ranks(self, args, ranks) -> None:
        size = args[0].entries.nbytes + ranks.rows.nbytes + ranks.inverse.nbytes
        self.instance_bytes = max(self.instance_bytes, size)

    def _saw_solve(self, args, result) -> None:
        from tspmcts.tours import tour_length

        dm = args[1]
        self.sims += result.simulations
        order = np.asarray(result.best_tour.order)
        length = result.best_tour.length
        if self.corrupt_length:
            self.corrupt_length = False
            length += 1.0
        ok = order.shape == (dm.n,) and np.array_equal(np.sort(order), np.arange(dm.n))
        if ok:
            recomputed = tour_length(order, dm)
            ok = abs(length - recomputed) <= LENGTH_REL_TOL * abs(recomputed)
        if not ok:
            config = next((i for i in reversed(self._stack) if self.spans[i][0] == "evalkit.run_benchmark"), -1)
            self.bad_solves[config] = self.bad_solves.get(config, 0) + 1

    # -- patching ---------------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch every traced function for the duration of the block."""
        import importlib

        observers = {
            "instances.distance_matrix": self._saw_distances,
            "instances.ranks": self._saw_ranks,
            "mcts.solve": self._saw_solve,
        }
        saved = []
        try:
            for module_name, attr, name in SPANNED:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                observe = observers.get(name)
                setattr(module, attr, self._span(original, name, observe))
            mcts = importlib.import_module("tspmcts.mcts")
            for attr, wrap in (
                ("generate_kopt_move", self._wrap_kopt),
                ("accept_or_restart", self._wrap_accept),
                ("sample_initial_tour", self._wrap_sample),
            ):
                original = getattr(mcts, attr)
                saved.append((mcts, attr, original))
                setattr(mcts, attr, wrap(original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # -- results ----------------------------------------------------------

    def total(self, name: str) -> float:
        return sum((s[2] - s[1] for s in self.spans if s[0] == name), 0.0)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def failed_ops(self, per_config: bool) -> int:
        """Bad best tours, counted per configuration or per instance solve."""
        if per_config:
            return len(self.bad_solves)
        return sum(self.bad_solves.values())

    def layer_seconds(self) -> dict[str, float]:
        """Disjoint layer times; whatever they leave of the run is ``other``."""
        return {
            "instances": self.total("instances.distance_matrix") + self.total("instances.ranks"),
            "heatmaps": self.total("heatmaps.build"),
            "tours.exact_solve": self.total("tours.exact_solve"),
            "mcts.init_state": self.total("mcts.init_state"),
            "mcts.search": self.kopt_s + self.accept_self_s + self.sample_s,
            "tuner.shapley": self.total("tuner.shapley"),
        }

    def metrics(self) -> dict[str, float]:
        """Per-layer metric values (without the run-level ones)."""
        configs = self.count("evalkit.run_benchmark")
        return {
            "instances.distance_matrix_s": self.total("instances.distance_matrix"),
            "instances.ranks_s": self.total("instances.ranks"),
            "instances.bytes": float(self.instance_bytes),
            "heatmaps.build_s": self.total("heatmaps.build"),
            "tours.exact_solve_s": self.total("tours.exact_solve"),
            "tours.exact_solve_calls": float(self.count("tours.exact_solve")),
            "evalkit.preps_per_instance": self.count("instances.distance_matrix") / max(1, len(self.instance_ids)),
            "mcts.init_state_s": self.total("mcts.init_state"),
            "mcts.us_per_sim": 1e6 * self.kopt_s / max(1, self.sims),
            "mcts.sims": float(self.sims),
            "mcts.accept_s": self.accept_self_s,
            "mcts.restart_s": self.restart_s,
            "mcts.restarts": float(self.restarts),
            "mcts.accept_ratio": self.accepted / max(1, self.decisions),
            "mcts.noise_accepts": float(self.noise_accepts),
            "mcts.descent_end_len_p50": (
                statistics.median(self.descent_end_lengths) if self.descent_end_lengths else 0.0
            ),
            "tuner.shapley_s": self.total("tuner.shapley"),
            "tuner.s_per_config": self.total("evalkit.run_benchmark") / max(1, configs),
        }

    def dump(self, path) -> None:
        """Write spans with their self times, and the hot-call counters."""
        t0 = self.spans[0][1] if self.spans else 0.0
        spans = [
            {
                "name": name,
                "start": start - t0,
                "end": end - t0,
                "parent": parent,
                "self_s": (end - start) - children,
            }
            for name, start, end, parent, children in self.spans
        ]
        hot = {
            "generate_kopt_move": {"calls": self.kopt_calls, "s": self.kopt_s},
            "accept_or_restart": {"calls": self.decisions, "self_s": self.accept_self_s},
            "sample_initial_tour": {"calls": self.sample_calls, "s": self.sample_s},
        }
        with open(path, "w") as f:
            json.dump({"spans": spans, "hot": hot}, f)
