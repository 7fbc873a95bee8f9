#!/usr/bin/env python3
"""Benchmark of the tspmcts CLI: three workloads, end-to-end metrics and a traced layer run.

Run from the repository root (numpy is the only dependency):

    python3 bench/run.py --workload solve-u500 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload tune-n12 --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --self-test

Each workload is one ``tspmcts`` CLI command (``--jobs 1``) on inputs made
from ``--seed``. With ``--trace 0`` the command runs in fresh child processes
for ``--seconds`` seconds, in rounds of two set-up runs (the same command
under ``--max-iters 1``) and one full run, at least ``MIN_ROUNDS`` rounds.
The end-to-end metrics are medians over those runs. With ``--trace 1`` the
command runs untraced in one child and traced in another (see ``child.py``
and ``tracer.py``), and the per-layer metrics come from the trace.

Every output is checked, and failures are counted against the operations
attempted: one instance solved, or one configuration evaluated by ``tune``.
Readable lines come first, including the end-to-end metrics left out of
the JSON result (``UNGATED``) and ``failed_frac``; the last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Inputs, cached reference tours, outputs and traces go to ``.bench_work/`` in
the repository root. ``bench/RECORD.md`` holds the recorded baseline.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

perf = time.perf_counter

#: Rounds (two set-up runs and one full run) per measured run, however short
#: --seconds is.
MIN_ROUNDS = 2
#: Children are killed, and no new one starts, this long after start-up, so
#: a run ends well inside three minutes.
HARD_LIMIT_S = 165.0
#: Largest n for which the CLI computes its own reference (Held-Karp).
EXACT_MAX_N = 18
#: |gap - (length / ref - 1) * 100| allowed in a results row, in percentage
#: points; the CSV holds 9 decimals.
GAP_TOL = 1e-6
#: |CSV ref_length - the benchmark's own reference length| allowed.
REF_TOL = 2e-9
#: Shapley efficiency tolerance, plus the rounding of the two 9-decimal gaps
#: the check reads back from tuning.csv.
EFFICIENCY_TOL = 1e-9
CSV_ROUNDING = 1e-9

#: End-to-end metrics in the JSON result, each with a bound in BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: End-to-end metrics that are printed but left out of the JSON result, as
#: no bound on them holds across seeds (see RECORD.md): full-run times swing
#: by up to 1.5x with the host's load, and the gap varies with the instances.
UNGATED = {
    "wall_s": "s",
    "cpu_s": "s",
    "gap_pct": "%",
}
PER_LAYER = {
    "instances.distance_matrix_s": "s",
    "instances.ranks_s": "s",
    "instances.bytes": "bytes",
    "heatmaps.build_s": "s",
    "tours.exact_solve_s": "s",
    "tours.exact_solve_calls": "count",
    "evalkit.preps_per_instance": "count",
    "mcts.init_state_s": "s",
    "mcts.us_per_sim": "us",
    "mcts.sims": "count",
    "mcts.accept_s": "s",
    "mcts.restart_s": "s",
    "mcts.restarts": "count",
    "mcts.accept_ratio": "ratio",
    "mcts.noise_accepts": "count",
    "mcts.descent_end_len_p50": "length",
    "tuner.shapley_s": "s",
    "tuner.s_per_config": "s",
    "cli.startup_s": "s",
    "trace.overhead_pct": "%",
}

TUNE_GRID = (
    "--alpha-values", "0,1",
    "--beta-values", "10,100",
    "--max-depth-values", "10,50",
    "--mcn-values", "5,1000",
    "--param-h-values", "2,10",
    "--use-heatmap-values", "false",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # "solve" or "tune"
    n: int
    count: int
    heatmap: str
    iters: int
    args: tuple[str, ...] = ()

    @property
    def operations(self) -> int:
        """Operations per command: instances solved, or configurations tuned."""
        if self.command == "tune":
            return math.prod(len(v.split(",")) for v in self.args[1::2])
        return self.count


# Sizes keep a full run between 3 and 6 s on a 2-CPU host, so that a
# measured run of 30 s holds three or four rounds.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "solve-u500",
            "paper's TSP-500 scale with default params: k-opt search dominates (full 499-wide candidate rows)",
            "solve", n=500, count=2, heatmap="gtprior:tsp500", iters=2000,
        ),
        Workload(
            "scale-u2000",
            "n=2000 with 20-wide rows: dense O(n^2) set-up and memory dominate; narrow rows make the O(n) path rebuild the per-sim cost",
            "solve", n=2000, count=1, heatmap="gtprior:tsp1000", iters=1500,
            args=("--max-candidate-num", "20"),
        ),
        Workload(
            "tune-n12",
            "32-config grid on n=12: per-config preparation (Held-Karp) dominates; tiny-n search with tied potentials",
            "tune", n=12, count=2, heatmap="zero", iters=200, args=TUNE_GRID,
        ),
    )
}

#: Tiny variants for --self-test, same commands and checks.
TINY = {
    "solve-u500": dict(n=30, count=2, iters=20),
    "scale-u2000": dict(n=40, count=1, iters=20),
    "tune-n12": dict(n=6, count=2, iters=5),
}


@dataclass
class Inputs:
    inst_dir: Path
    ids: list[str]
    ref_dir: Path | None = None
    ref_lengths: list[float] | None = None


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float
    code: int


@dataclass
class Result:
    metrics: dict[str, float]
    attempted: int = 0
    failed: int = 0
    notes: list[str] = dataclasses.field(default_factory=list)


class Clock:
    """Time left before HARD_LIMIT_S, counted from the benchmark's start."""

    def __init__(self) -> None:
        self.start = perf()

    def left(self) -> float:
        return HARD_LIMIT_S - (perf() - self.start)


# -- inputs ------------------------------------------------------------------


def nearest_neighbour_order(d: np.ndarray) -> list[int]:
    n = d.shape[0]
    visited = np.zeros(n, dtype=bool)
    order = [0]
    visited[0] = True
    for _ in range(n - 1):
        j = int(np.where(visited, np.inf, d[order[-1]]).argmin())
        order.append(j)
        visited[j] = True
    return order


def reference_tour(text: str, dm, cache: Path) -> np.ndarray:
    """Nearest-neighbour start plus ``tours.two_opt``, cached by instance text."""
    from tspmcts import tours

    path = cache / (hashlib.sha256(text.encode()).hexdigest()[:24] + ".tour")
    if path.exists():
        return tours.parse_tour(path.read_text())
    tour = tours.two_opt(tours.make_tour(nearest_neighbour_order(dm.entries), dm), dm)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(tours.write_tour(tour.order))
    tmp.replace(path)
    return tour.order


def make_inputs(wl: Workload, seed: int) -> Inputs:
    """Uniform points from the benchmark's own RNG, as native-format files."""
    from tspmcts import instances, tours

    base = WORK / f"{wl.name}-n{wl.n}x{wl.count}-s{seed}"
    shutil.rmtree(base, ignore_errors=True)
    inputs = Inputs(inst_dir=base / "instances", ids=[f"u{i:02d}" for i in range(wl.count)])
    inputs.inst_dir.mkdir(parents=True)
    if wl.n > EXACT_MAX_N:
        inputs.ref_dir, inputs.ref_lengths = base / "refs", []
        inputs.ref_dir.mkdir()
        (WORK / "refs").mkdir(exist_ok=True)
    points = np.random.default_rng([seed, wl.n, wl.count]).random((wl.count, wl.n, 2))
    for iid, pts in zip(inputs.ids, points):
        text = f"n {wl.n}\n" + "".join(f"{x!r} {y!r}\n" for x, y in pts.tolist())
        (inputs.inst_dir / f"{iid}.txt").write_text(text)
        if inputs.ref_dir is None:
            continue
        dm = instances.distance_matrix(instances.parse_native(text))
        order = reference_tour(text, dm, WORK / "refs")
        (inputs.ref_dir / f"{iid}.tour").write_text(tours.write_tour(order))
        inputs.ref_lengths.append(tours.tour_length(order, dm))
    return inputs


def cli_args(wl: Workload, inputs: Inputs, seed: int, iters: int, out: Path) -> list[str]:
    args = [wl.command, "--instances", str(inputs.inst_dir), "--heatmap", wl.heatmap,
            "--max-iters", str(iters), "--seed", str(seed), "--jobs", "1", *wl.args]
    if wl.command == "tune":
        return args + ["--out-dir", str(out)]
    if inputs.ref_dir is not None:
        args += ["--refs", str(inputs.ref_dir)]
    return args + ["--out", str(out)]


# -- children ----------------------------------------------------------------


def run_child(argv: list[str], log: Path, timeout: float) -> Child:
    """Run one child; CPU and peak RSS come from its own ``wait4`` rusage.

    ``RUSAGE_CHILDREN`` would not do: its maxrss is a running maximum over
    every child this process has reaped.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(log, "w") as out:
        t0 = perf()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # Interrupted (SIGTERM arrives as SystemExit): leave no child behind.
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            killer.cancel()
        wall = perf() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


def cli_child(args: list[str], log: Path, clock: Clock) -> Child:
    return run_child([sys.executable, "-m", "tspmcts.cli", *args], log, clock.left())


# -- output checks -------------------------------------------------------------


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def check_solve(out: Path, inputs: Inputs) -> tuple[dict[str, str], float, int]:
    """Check a results CSV: (length text per instance, mean gap, failed rows)."""
    try:
        rows = read_csv(out)
    except (OSError, csv.Error):
        return {}, math.nan, len(inputs.ids)
    failed = 0
    lengths: dict[str, str] = {}
    gaps = []
    for i, iid in enumerate(inputs.ids):
        mine = [r for r in rows if r.get("instance") == iid]
        if len(mine) != 1:
            failed += 1
            continue
        try:
            length, ref, gap = (float(mine[0][k]) for k in ("length", "ref_length", "gap_pct"))
        except (KeyError, TypeError, ValueError):
            failed += 1
            continue
        ok = all(math.isfinite(v) for v in (length, ref, gap)) and ref > 0
        ok = ok and abs(gap - (length / ref - 1.0) * 100.0) <= GAP_TOL
        if inputs.ref_lengths is not None:
            ok = ok and abs(ref - inputs.ref_lengths[i]) <= REF_TOL
        if not ok:
            failed += 1
            continue
        lengths[iid] = mine[0]["length"]
        gaps.append(gap)
    failed += sum(1 for r in rows if r.get("instance") not in inputs.ids)
    mean_gap = statistics.fmean(gaps) if gaps else math.nan
    return lengths, mean_gap, min(failed, len(inputs.ids))


def check_tune(out: Path, configs: int) -> tuple[dict[str, str], float, int]:
    """Check tuning.csv and shapley.csv: (gap text per config, best gap, failed configs)."""
    try:
        rows = read_csv(out / "tuning.csv")
        phis = read_csv(out / "shapley.csv")
        gaps = {r["config_id"]: float(r["mean_gap"]) for r in rows}
        texts = {r["config_id"]: r["mean_gap"] for r in rows}
    except (OSError, csv.Error, KeyError, TypeError, ValueError):
        return {}, math.nan, configs
    if len(rows) != configs or len(gaps) != configs or not all(map(math.isfinite, gaps.values())):
        return {}, math.nan, configs
    grid_mean = statistics.fmean(gaps.values())
    phi_sums: dict[str, float] = {}
    try:
        for r in phis:
            phi_sums[r["config_id"]] = phi_sums.get(r["config_id"], 0.0) + float(r["phi"])
    except (KeyError, TypeError, ValueError):
        return {}, math.nan, configs
    failed = sum(
        1
        for cid, gap in gaps.items()
        if cid not in phi_sums
        or not abs(phi_sums[cid] - (gap - grid_mean)) <= EFFICIENCY_TOL + CSV_ROUNDING
    )
    failed += len(set(phi_sums) - set(gaps))
    return texts, min(gaps.values()), min(failed, configs)


def check_output(wl: Workload, out: Path, inputs: Inputs) -> tuple[dict[str, str], float, int]:
    if wl.command == "tune":
        return check_tune(out, wl.operations)
    return check_solve(out, inputs)


def differing(a: dict[str, str], b: dict[str, str]) -> int:
    return sum(1 for k in set(a) | set(b) if a.get(k) != b.get(k))


# -- trace 0: end-to-end -------------------------------------------------------


def measure(wl, inputs, seed, seconds, clock, min_rounds=MIN_ROUNDS, corrupt=None) -> Result:
    """Run rounds of two set-up runs and one full run for ``seconds`` seconds."""
    run_dir = inputs.inst_dir.parent
    res = Result(metrics={})
    full: list[Child] = []
    setup: list[Child] = []
    first: dict[str, str] | None = None
    gap = math.nan
    end = perf() + seconds
    rounds = 0
    round_s = 0.0
    # Stop at the round boundary nearest to ``end``.
    while rounds < min_rounds or perf() + round_s / 2 < end:
        round_start = perf()
        for label in ("setup", "setup", "full"):
            iters = 1 if label == "setup" else wl.iters
            out = run_dir / f"out-{label}"
            shutil.rmtree(out, ignore_errors=True)
            out.unlink(missing_ok=True)
            child = cli_child(cli_args(wl, inputs, seed, iters, out), run_dir / f"{label}.log", clock)
            if corrupt is not None:
                corrupt(out)
            res.attempted += wl.operations
            if child.code != 0:
                res.failed += wl.operations
                res.notes.append(f"{label} run exited {child.code}; see {run_dir / (label + '.log')}")
                continue
            values, run_gap, failed = check_output(wl, out, inputs)
            if label == "full":
                if first is None:
                    first, gap = values, run_gap
                else:
                    # Iters mode is deterministic: every full run must agree.
                    failed = max(failed, differing(first, values))
            res.failed += min(failed, wl.operations)
            (full if label == "full" else setup).append(child)
        rounds += 1
        round_s = perf() - round_start
        if clock.left() < 1.5 * round_s:
            break
    if not full or not setup:
        res.metrics = dict.fromkeys({**END_TO_END, **UNGATED}, 0.0)
        return res
    res.metrics = {
        "wall_s": statistics.median(c.wall for c in full),
        "setup_s": statistics.median(c.wall for c in setup),
        "cpu_s": statistics.median(c.cpu for c in full),
        "peak_rss_mb": statistics.median(c.rss_mb for c in full),
        "gap_pct": gap if math.isfinite(gap) else 0.0,
    }
    res.notes.append("full-run walls: " + " ".join(f"{c.wall:.3f}" for c in full))
    res.notes.append("set-up walls: " + " ".join(f"{c.wall:.3f}" for c in setup))
    return res


# -- trace 1: per-layer --------------------------------------------------------


def startup_seconds(run_dir: Path, clock: Clock) -> float:
    """Median wall of interpreter start plus ``import tspmcts.cli``."""
    walls = [
        run_child([sys.executable, "-c", "import tspmcts.cli"], run_dir / "startup.log", clock.left()).wall
        for _ in range(3)
    ]
    return statistics.median(walls)


def recorded_run(wl, inputs, seed, traced: bool, clock: Clock, corrupt=None) -> tuple[Child, dict, dict[str, str], int]:
    """Run the command through ``child.py``: (child, its record, checked values, failed ops).

    ``corrupt`` is for the self-test: ``"length"`` has the tracer check one
    best tour against a wrong length, ``"exact"`` alters one exact length in
    the record, as a tracer that perturbed the search would.
    """
    run_dir = inputs.inst_dir.parent
    label = "traced" if traced else "plain"
    out, record_path = run_dir / f"out-{label}", run_dir / f"{label}.json"
    shutil.rmtree(out, ignore_errors=True)
    out.unlink(missing_ok=True)
    record_path.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH / "child.py"), str(record_path)]
    argv += ["--trace"] if traced else []
    argv += ["--corrupt-length"] if corrupt == "length" else []
    child = run_child(argv + cli_args(wl, inputs, seed, wl.iters, out), run_dir / f"{label}.log", clock.left())
    if child.code != 0:
        return child, {}, {}, wl.operations
    record = json.loads(record_path.read_text())
    if corrupt == "exact":
        record["exact"][0] = float.hex(float.fromhex(record["exact"][0]) + 1.0)
    values, _, failed = check_output(wl, out, inputs)
    return child, record, values, max(failed, record.get("bad_tours", 0))


def trace(wl, inputs, seed, seconds, clock, corrupt=None) -> Result:
    """Pairs of untraced and traced child runs, for ``seconds`` seconds."""
    run_dir = inputs.inst_dir.parent
    res = Result(metrics={})
    startup = startup_seconds(run_dir, clock)
    per_pair: list[dict[str, float]] = []
    shares: list[dict[str, float]] = []
    end = perf() + seconds
    pair_s = 0.0
    while not per_pair or perf() + pair_s / 2 < end:
        pair_start = perf()
        plain, plain_record, plain_values, plain_failed = recorded_run(wl, inputs, seed, False, clock)
        traced, record, traced_values, failed = recorded_run(wl, inputs, seed, True, clock, corrupt)
        res.attempted += 2 * wl.operations
        res.failed += min(plain_failed, wl.operations)
        if not record:
            res.failed += wl.operations
            res.notes.append(f"traced run exited {traced.code}; see {run_dir / 'traced.log'}")
            break
        # The tracer draws no random numbers, so lengths agree bit for bit.
        exact_plain, exact_traced = plain_record.get("exact", []), record["exact"]
        if len(exact_plain) != len(exact_traced):
            failed = wl.operations
        failed = max(failed, sum(a != b for a, b in zip(exact_plain, exact_traced)))
        failed = max(failed, differing(plain_values, traced_values))
        res.failed += min(failed, wl.operations)
        metrics = record["metrics"]
        metrics["cli.startup_s"] = startup
        metrics["trace.overhead_pct"] = 100.0 * (traced.wall / plain.wall - 1.0)
        per_pair.append(metrics)
        shares.append({k: v / record["main_s"] for k, v in record["layers"].items()})
        pair_s = perf() - pair_start
        if clock.left() < 1.5 * pair_s:
            break
    if not per_pair:
        res.metrics = dict.fromkeys(PER_LAYER, 0.0)
        return res
    res.metrics = {k: statistics.median(p[k] for p in per_pair) for k in PER_LAYER}
    layers = {k: statistics.median(s[k] for s in shares) for k in shares[0]}
    layers["other"] = 1.0 - sum(layers.values())
    res.notes.append(f"{len(per_pair)} traced runs; spans in {run_dir / 'trace.json'}")
    res.notes.append("layer shares of the traced cli.main: "
                     + ", ".join(f"{k} {100 * v:.1f}%" for k, v in layers.items()))
    res.notes.append("instances.bytes is computed: nbytes of dm.entries + ranks.rows + ranks.inverse")
    return res


# -- reporting and self-test -----------------------------------------------------


def report(wl: Workload, seed: int, traced: bool, res: Result) -> None:
    units = PER_LAYER if traced else END_TO_END
    print(f"# {wl.name} seed={seed} trace={int(traced)}: {wl.why}")
    for note in res.notes:
        print(f"# {note}")
    for name, unit in (units if traced else {**END_TO_END, **UNGATED}).items():
        print(f"{name} {res.metrics[name]!r} {unit}")
    frac = res.failed / res.attempted if res.attempted else 1.0
    print(f"failed_frac {frac!r} ratio ({res.failed} of {res.attempted} operations failed)")
    print(json.dumps({
        "correct": res.failed == 0 and res.attempted > 0,
        "attempted": max(res.attempted, 1),
        "failed": res.failed if res.attempted else 1,
        "metrics": {name: {"value": res.metrics[name], "unit": unit} for name, unit in units.items()},
    }))


def corrupt_output(out: Path) -> None:
    """Break one value in a command's output, as a faulty solver would."""
    if out.is_dir():
        path, column = out / "shapley.csv", "phi"
    else:
        path, column = out, "length"
    rows = read_csv(path)
    rows[0][column] = repr(float(rows[0][column]) + 1.0)
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def self_test() -> int:
    """Tiny-size run of every workload: names, units, and failure counting."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for traced, units in ((False, END_TO_END), (True, PER_LAYER)):
        if declared[traced] != units:
            problems.append(f"BENCHMARK.json metrics differ from the emitted ones (trace={int(traced)})")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from WORKLOADS")
    clock = Clock()
    for name, sizes in TINY.items():
        wl = dataclasses.replace(WORKLOADS[name], **sizes)
        inputs = make_inputs(wl, seed=1)
        for traced in (False, True):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                res = trace(wl, inputs, 1, 0, clock) if traced else measure(wl, inputs, 1, 0, clock, min_rounds=1)
                report(wl, 1, traced, res)
            out = json.loads(buf.getvalue().splitlines()[-1])
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            printed = {line.split()[0] for line in buf.getvalue().splitlines()}
            must_print = {"failed_frac"} if traced else {"failed_frac", *END_TO_END, *UNGATED}
            if got != (PER_LAYER if traced else END_TO_END) or not must_print <= printed:
                problems.append(f"{name} trace={int(traced)}: wrong metric names or units")
            if out["failed"] or not out["correct"]:
                problems.append(f"{name} trace={int(traced)}: {out['failed']} failed operations: {res.notes}")
        bad = measure(wl, inputs, 1, 0, clock, min_rounds=1, corrupt=corrupt_output)
        if bad.failed == 0:
            problems.append(f"{name}: a corrupted result was not counted as failed")
        for corrupt in ("length", "exact"):
            bad = trace(wl, inputs, 1, 0, clock, corrupt=corrupt)
            if bad.failed == 0:
                problems.append(f"{name}: a corrupted traced {corrupt} was not counted as failed")
    for p in problems:
        print(f"self-test: {p}")
    print("self-test: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="tiny-size check of names, units and failure counting")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "tspmcts" / "cli.py").is_file():
        print(f"error: no tspmcts sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    clock = Clock()
    wl = WORKLOADS[args.workload]
    inputs = make_inputs(wl, args.seed)
    if args.trace:
        res = trace(wl, inputs, args.seed, args.seconds, clock)
    else:
        res = measure(wl, inputs, args.seed, args.seconds, clock)
    report(wl, args.seed, bool(args.trace), res)
    return 0


if __name__ == "__main__":
    sys.exit(main())
