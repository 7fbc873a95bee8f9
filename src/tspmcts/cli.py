"""Command-line pipelines: gen, solve, tune, analyze-knn, report.

An argument @FILE stands for the lines of FILE, one argument per line (solve @tuned/best_config.txt).
Exit codes: 0 success, 2 usage, 3 I/O, 4 config/dimension errors.
"""
from __future__ import annotations

import os

# Set before numpy loads: the CLI makes no BLAS call, and OpenBLAS would start a thread per
# CPU (50-70 ms per process on a busy 2-CPU host). A value set by the caller is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import heatmaps, instances, tours, tuner
from .evalkit import Budget, reference_tour, run_benchmark
from .mcts import MctsParams

# Loaded after numpy and the package: loaded before numpy, they raised the CLI's peak RSS
# by 0.1-0.2 MB (heap layout) where each process compiles the package.
import argparse
import csv
import sys
from pathlib import Path

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_CONFIG = 4


#: The results-CSV columns ``report`` reads: two group keys, then three numbers.
REPORT_COLUMNS = ("heatmap", "config", "length", "gap_pct", "time_s")


class UsageError(Exception):
    pass


class ArgumentParser(argparse.ArgumentParser):
    """Every subcommand's parser: no flag abbreviations, and a usage error raised as ``UsageError``."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message: str):
        raise UsageError(message)


def flag_type(cast, check):
    """An argparse type: ``check(cast(text))``. argparse reports text that ``cast`` rejects as an
    "invalid CAST value", and a value that ``check`` rejects by the rule it broke."""
    def parse(text: str):
        value = cast(text)
        try:
            return check(value)
        except (ValueError, OverflowError) as exc:  # OverflowError: Budget's isfinite on an int past float range
            raise argparse.ArgumentTypeError(str(exc)) from None

    parse.__name__ = cast.__name__
    return parse


def int_at_least(low: int):
    """An argparse type: an int of at least ``low``."""
    def check(value: int) -> int:
        if value < low:
            raise ValueError(f"must be at least {low}, got {value}")
        return value

    return flag_type(int, check)


def param_type(name: str):
    """An argparse type: solver parameter ``name`` as ``MctsParams`` stores it, checked by its rule."""
    return flag_type(tuner.FIELD_PARSERS[name], lambda value: getattr(MctsParams(**{name: value}), name))


def grid_type(name: str):
    """An argparse type: comma-separated ``param_type(name)`` values, as a list checked by ``SearchSpace``."""
    value = param_type(name)
    return flag_type(str, lambda text: getattr(tuner.SearchSpace(**{
        name: tuple(value(tok) for tok in text.split(",") if tok.strip())}), name))


def heatmap_spec(spec: str):
    """An argparse type: ``zero | softdist:TAU | gtprior:NAME-or-FILE | file:PATH`` as the heatmap's id and a
    function that builds its source (so a prior file is read after the flags are parsed)."""
    kind, _, arg = spec.partition(":")
    if kind == "zero" and not arg:
        return "zero", heatmaps.ZeroSource
    if kind == "softdist" and arg:  # malformed: an "invalid heatmap_spec value"; out of range: the rule it broke
        source = heatmaps.SoftDistSource(flag_type(float, heatmaps.check_tau)(arg))
        return spec, lambda: source
    if kind == "gtprior" and arg:  # a builtin's id is its name
        return f"gtprior:{Path(arg).name}", lambda: heatmaps.PriorSource(
            heatmaps.BUILTIN_PRIORS[arg] if arg in heatmaps.BUILTIN_PRIORS else heatmaps.load_prior(arg))
    if kind == "file" and arg:
        return f"file:{Path(arg).name}", lambda: heatmaps.FileSource(path=arg)
    raise argparse.ArgumentTypeError(f"not zero, softdist:TAU, gtprior:NAME-or-FILE or file:PATH: {spec!r}")


def load_instance_dir(inst_dir: str, tour_dir: str | None) -> list[tuple[instances.Instance, np.ndarray | None]]:
    """Each instance file (.txt/.tsp) in ``inst_dir``, sorted by name, with the order read
    from its ``<stem>.tour`` file in ``tour_dir``, or None without a ``tour_dir``."""
    files = sorted(p for p in Path(inst_dir).iterdir() if p.suffix in (".txt", ".tsp"))
    if not files:
        raise FileNotFoundError(f"no instance files (.txt/.tsp) in {inst_dir}")
    pairs = []
    for path in files:
        at, order = path, None
        try:
            inst = instances.load_instance(path)
            if tour_dir is not None:
                at = Path(tour_dir) / (path.stem + ".tour")
                if not at.exists():
                    raise FileNotFoundError(f"missing tour file: {at}")
                order = tours.parse_tour(at.read_text())
                if len(order) != inst.n:
                    raise tours.InvalidTourError(f"tour has {len(order)} cities, the instance has {inst.n}")
        except ValueError as exc:  # named by the file at fault, in its own type (a decode error's needs 5 fields)
            raise (ValueError if isinstance(exc, UnicodeError) else type(exc))(f"{at}: {exc}") from None
        pairs.append((inst, order))
    return pairs


def _tasks_from_args(args) -> tuple[list[tuple], str]:
    """``prepare``'s arguments ``(inst, reference_order, heatmap_source)`` for each instance
    (a None reference means the exact oracle's), and the heatmap's id."""
    heatmap_id, build_source = args.heatmap
    source = build_source()
    return [(inst, ref, source) for inst, ref in load_instance_dir(args.instances, args.refs)], heatmap_id


def _given_params(args) -> dict:
    """The solver parameters (or their grid values) given as flags, by ``MctsParams`` field."""
    return {name: value for name in tuner.PARAM_FIELDS if (value := getattr(args, name)) is not None}


def _add_inputs(p: argparse.ArgumentParser) -> None:
    """The instance directory and its reference tours, read by ``load_instance_dir``."""
    p.add_argument("--instances", required=True, help="directory of native .txt and TSPLIB EUC_2D .tsp files")
    p.add_argument("--refs", help="directory of <instance>.tour reference files (default: the exact oracle, n <= 18)")


def _add_common_args(p: argparse.ArgumentParser) -> None:
    """The inputs, budget and seeding that ``solve`` and ``tune`` share."""
    _add_inputs(p)
    p.add_argument("--heatmap", required=True, type=heatmap_spec,
                   help="zero | softdist:TAU | gtprior:NAME-or-FILE | file:PATH")
    budget = p.add_mutually_exclusive_group(required=True)
    budget.add_argument("--time-factor", dest="budget", type=flag_type(float, lambda s: Budget("wall", s)),
                        metavar="S", help="wall seconds per city")
    budget.add_argument("--max-iters", dest="budget", type=flag_type(int, lambda n: Budget("iters", n)),
                        metavar="N", help="k-opt simulation cap (deterministic)")
    p.add_argument("--seed", type=int_at_least(0), default=0)
    p.add_argument("--jobs", type=int_at_least(1), default=1)


def cmd_gen(args) -> int:
    out = Path(args.out)
    manifest_rows = []
    for i in range(args.count):
        seed_i = args.seed + i
        if args.dist == "uniform":
            inst = instances.generate_uniform(args.n, seed_i)
        else:
            inst = instances.generate_structured(args.n, seed_i, args.dist, n_clusters=args.clusters, spread=args.spread,
                                                 center=(args.center_x, args.center_y), radius=args.radius)
        if i == 0:  # only once an instance is built: a bad parameter leaves no --out behind
            out.mkdir(parents=True, exist_ok=True)
        fname = f"{i:04d}-{inst.id}.txt"
        (out / fname).write_text(instances.write_native(inst))
        manifest_rows.append([fname, inst.id, inst.n, args.dist, seed_i])
    with open(out / "manifest.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["file", "id", "n", "dist", "seed"])
        writer.writerows(manifest_rows)
    print(f"wrote {args.count} instances to {out}")
    return EXIT_OK


def cmd_solve(args) -> int:
    params = MctsParams(**_given_params(args))
    tasks, heatmap_id = _tasks_from_args(args)
    table = run_benchmark(tasks, {tuner.config_id(params): params}, args.budget, seed=args.seed, jobs=args.jobs,
                          heatmap_id=heatmap_id)
    table.write_csv(args.out)
    print(f"{len(table.rows)} instances: mean gap {table.mean_gap:.4f}% "
          f"(min {table.min_gap:.4f}%, max {table.max_gap:.4f}%) -> {args.out}")
    return EXIT_OK


def cmd_tune(args) -> int:
    tasks, heatmap_id = _tasks_from_args(args)
    space = tuner.SearchSpace(**_given_params(args))
    report = tuner.tune(space, tuner.evaluate_grid(space, tasks, args.budget, seed=args.seed, jobs=args.jobs))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report.write_csv(out / "tuning.csv")
    report.write_shapley_csv(out / "shapley.csv")
    tuner.write_params_file(report.best_config, out / "best_config.txt")
    print(f"best config {tuner.config_id(report.best_config)} "
          f"mean gap {report.best_gap:.4f}% ({heatmap_id}) -> {out}")
    return EXIT_OK


def cmd_analyze_knn(args) -> int:
    dms, tour_list = [], []
    for inst, order in load_instance_dir(args.instances, args.refs):
        dm = instances.distance_matrix(inst)
        dms.append(dm)
        tour_list.append(reference_tour(inst, dm, order))
    prior = heatmaps.build_gt_prior(dms, tour_list)
    heatmaps.write_distribution_csv(prior, args.out)
    top5 = heatmaps.cumulative_mass(prior, 5)
    print(f"{len(dms)} instances, truncation {prior.truncation}, top-5 mass {top5:.4f} -> {args.out}")
    return EXIT_OK


def _report_numbers(path: str, line: int, row: dict) -> list[float]:
    """A results row's length, gap_pct and time_s; a missing, malformed or non-finite number is a config error."""
    if missing := [col for col in REPORT_COLUMNS if row[col] is None]:
        raise ValueError(f"{path}: line {line}: missing {', '.join(missing)}")
    try:
        numbers = [float(row[col]) for col in REPORT_COLUMNS[2:]]
    except ValueError as exc:
        raise ValueError(f"{path}: line {line}: {exc}") from None
    if bad := [col for col, x in zip(REPORT_COLUMNS[2:], numbers) if not np.isfinite(x)]:
        raise ValueError(f"{path}: line {line}: not finite: {', '.join(bad)}")
    return numbers


def cmd_report(args) -> int:
    groups: dict[tuple[str, str], list[list[float]]] = {}
    for path in args.inputs:
        with open(path, newline="") as f:
            reader = csv.DictReader(f)
            try:
                missing = sorted(set(REPORT_COLUMNS) - set(reader.fieldnames or ()))
                if missing:
                    raise ValueError(f"{path}: missing columns {', '.join(missing)}")
                for row in reader:
                    numbers = _report_numbers(path, reader.line_num, row)
                    groups.setdefault((row["heatmap"], row["config"]), []).append(numbers)
            except csv.Error as exc:  # e.g. a field past the csv module's size limit, in the record after line_num
                raise ValueError(f"{path}: line {reader.line_num + 1}: {exc}") from None
    lines = ["| Heatmap | Config | Instances | Mean Length | Mean Gap | Mean Time |", "|---|---|---|---|---|---|"]
    summaries = []
    for (hm, cfg), rows in groups.items():
        mean_len, mean_gap, mean_time = (float(np.mean(col)) for col in zip(*rows))
        summaries.append((mean_gap, hm, cfg, len(rows), mean_len, mean_time))
    for mean_gap, hm, cfg, count, mean_len, mean_time in sorted(summaries):
        lines.append(f"| {hm} | {cfg} | {count} | {mean_len:.4f} | {mean_gap:.2f}% | {mean_time:.2f}s |")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"report -> {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = ArgumentParser(prog="tspmcts", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate instance files")
    p.add_argument("--n", type=int_at_least(3), required=True)
    p.add_argument("--count", type=int_at_least(1), required=True)
    p.add_argument("--dist", choices=["uniform", "cluster", "explosion", "implosion"], default="uniform")
    p.add_argument("--seed", type=int_at_least(0), default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--clusters", type=int, default=5)
    p.add_argument("--spread", type=float, default=0.05)
    p.add_argument("--center-x", dest="center_x", type=float, default=0.5)
    p.add_argument("--center-y", dest="center_y", type=float, default=0.5)
    p.add_argument("--radius", type=float, default=0.2)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="solve an instance directory, emit a results CSV")
    _add_common_args(p)
    p.add_argument("--out", required=True)
    for name, flag in tuner.FIELD_FLAGS.items():
        p.add_argument(flag, type=param_type(name))
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("tune", help="grid-search solver hyperparameters")
    _add_common_args(p)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    for name, flag in tuner.FIELD_FLAGS.items():  # --alpha-values, ..., but --mcn-values for --max-candidate-num
        p.add_argument("--mcn-values" if name == "max_candidate_num" else flag + "-values", dest=name,
                       type=grid_type(name), help="comma-separated grid values")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("analyze-knn", help="neighbor-rank distribution of (near-)optimal tours")
    _add_inputs(p)
    p.add_argument("--out", required=True, help="rank,mass,cumulative CSV; gtprior:FILE reads it")
    p.set_defaults(func=cmd_analyze_knn)

    p = sub.add_parser("report", help="merge results CSVs into a Markdown summary")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    return parser


def expand_flag_files(argv: list[str]) -> list[str]:
    """``argv`` with each ``@FILE`` argument replaced by the lines of FILE, one argument per
    line (blank and ``#`` lines skipped, an ``@`` line not expanded again)."""
    expanded = []
    for arg in argv:
        if not arg.startswith("@"):
            expanded.append(arg)
            continue
        try:
            text = Path(arg[1:]).read_text()
        except UnicodeError as exc:  # a decode error's type needs 5 fields
            raise ValueError(f"{arg[1:]}: {exc}") from None
        expanded += [line for line in map(str.strip, text.splitlines()) if line and not line.startswith("#")]
    return expanded


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(expand_flag_files(sys.argv[1:] if argv is None else argv))
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, MemoryError) as exc:  # MemoryError: a size too large to allocate, e.g. gen --n 10**13
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
