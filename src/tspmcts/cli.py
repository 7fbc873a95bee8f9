"""Command-line pipelines: gen, solve, tune, analyze-knn, report.

Exit codes: 0 success, 2 usage, 3 I/O, 4 config/dimension errors.
"""
from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import heatmaps, instances, knn_stats, tours, tuner
from .evalkit import Budget, prepare, run_benchmark
from .mcts import MctsParams

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_CONFIG = 4


#: tune's grid flags by SearchSpace field; values parse with tuner.FIELD_PARSERS.
GRID_FLAGS = {"alpha": "--alpha-values", "beta": "--beta-values", "max_depth": "--max-depth-values",
              "max_candidate_num": "--mcn-values", "param_h": "--param-h-values", "use_heatmap": "--use-heatmap-values"}
#: The results-CSV columns ``report`` reads: two group keys, then three numbers.
REPORT_COLUMNS = ("heatmap", "config", "length", "gap_pct", "time_s")


class UsageError(Exception):
    pass


def parse_heatmap_spec(spec: str) -> tuple[heatmaps.ZeroSource | heatmaps.PriorSource | heatmaps.SoftDistSource | heatmaps.FileSource, str]:
    """Resolve ``zero | softdist:TAU | gtprior:NAME-or-FILE | file:PATH``."""
    kind, _, arg = spec.partition(":")
    if kind == "zero" and not arg:
        return heatmaps.ZeroSource(), "zero"
    if kind == "softdist":
        if not arg:
            raise UsageError("softdist needs a temperature, e.g. softdist:1.0")
        return heatmaps.SoftDistSource(tau=_flag_value("--heatmap softdist", arg, float)), f"softdist:{arg}"
    if kind == "gtprior":
        if not arg:
            raise UsageError("gtprior needs a builtin name or prior file")
        if arg in heatmaps.BUILTIN_PRIORS:
            return heatmaps.PriorSource(heatmaps.BUILTIN_PRIORS[arg]), f"gtprior:{arg}"
        return heatmaps.PriorSource(heatmaps.load_prior(arg)), f"gtprior:{Path(arg).name}"
    if kind == "file":
        if not arg:
            raise UsageError("file needs a path, e.g. file:heatmap.txt")
        return heatmaps.FileSource(path=arg), f"file:{Path(arg).name}"
    raise UsageError(f"unknown heatmap spec: {spec!r}")


def _flag_value(flag: str, text: str, cast):
    """``cast(text)``, with a malformed value reported as a usage error."""
    try:
        return cast(text)
    except ValueError:
        raise UsageError(f"{flag}: {text!r} is not a valid {cast.__name__}") from None


def int_at_least(low: int):
    """An argparse type: an int of at least ``low``; anything else is a usage error on its flag."""
    def parse(text: str) -> int:
        if (value := int(text)) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse reports a malformed value as "invalid int value"
    return parse


def _instance_files(path: str) -> list[Path]:
    """Instance files (.txt/.tsp) in ``path``, sorted by name."""
    files = sorted(p for p in Path(path).iterdir() if p.suffix in (".txt", ".tsp"))
    if not files:
        raise FileNotFoundError(f"no instance files (.txt/.tsp) in {path}")
    return files


def load_instance_dir(path: str) -> list[instances.Instance]:
    return [instances.load_instance(p) for p in _instance_files(path)]


def load_reference_tours(ref_dir: str, inst_dir: str) -> list[np.ndarray]:
    refs = []
    for p in _instance_files(inst_dir):
        tour_path = Path(ref_dir) / (p.stem + ".tour")
        if not tour_path.exists():
            raise FileNotFoundError(f"missing reference tour: {tour_path}")
        refs.append(tours.parse_tour(tour_path.read_text()))
    return refs


def _budget_from_args(args) -> Budget:
    if (args.time_factor is None) == (args.max_iters is None):
        raise UsageError("exactly one of --time-factor or --max-iters is required")
    if args.max_iters is not None:
        return Budget(mode="iters", value=args.max_iters)
    return Budget(mode="wall", value=args.time_factor)


def _params_from_args(args) -> MctsParams:
    params = tuner.read_params_file(args.params) if args.params else MctsParams()
    overrides = {name: value for name in tuner.PARAM_FIELDS if (value := getattr(args, name)) is not None}
    return replace(params, **overrides) if overrides else params


def _add_common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--heatmap", required=True, help="zero | softdist:TAU | gtprior:NAME-or-FILE | file:PATH")
    p.add_argument("--time-factor", dest="time_factor", type=float, help="wall seconds per city")
    p.add_argument("--max-iters", dest="max_iters", type=int, help="k-opt simulation cap (deterministic)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int_at_least(1), default=1)
    p.add_argument("--metric", choices=["real", "int"], default="real")


def _add_param_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--params", help="key=value solver config file")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--max-depth", dest="max_depth", type=int)
    p.add_argument("--max-candidate-num", dest="max_candidate_num", type=int)
    p.add_argument("--param-h", dest="param_h", type=int)
    p.add_argument("--use-heatmap", dest="use_heatmap", type=tuner.boolean, help="true/false")


def cmd_gen(args) -> int:
    out = Path(args.out)
    params = instances.StructuredParams(
        n_clusters=args.clusters,
        spread=args.spread,
        center=(args.center_x, args.center_y),
        radius=args.radius,
    )
    manifest_rows = []
    for i in range(args.count):
        seed_i = args.seed + i
        if args.dist == "uniform":
            inst = instances.generate_uniform(args.n, seed_i)
        else:
            inst = instances.generate_structured(args.n, seed_i, args.dist, params)
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
    budget = _budget_from_args(args)
    source, heatmap_id = parse_heatmap_spec(args.heatmap)
    params = _params_from_args(args)
    insts = load_instance_dir(args.instances)
    refs = load_reference_tours(args.refs, args.instances) if args.refs else [None] * len(insts)
    metric = instances.Metric.EUC2D_INT if args.metric == "int" else instances.Metric.EUC2D_REAL
    prepared = (prepare(inst, ref, source, metric) for inst, ref in zip(insts, refs, strict=True))
    table = run_benchmark(
        prepared, params, budget, seed=args.seed, jobs=args.jobs,
        config_id=tuner.config_id(params), heatmap_id=heatmap_id,
    )
    table.write_csv(args.out)
    print(f"{len(table.rows)} instances: mean gap {table.mean_gap:.4f}% "
          f"(min {table.min_gap:.4f}%, max {table.max_gap:.4f}%) -> {args.out}")
    return EXIT_OK


def _space_from_args(args) -> tuner.SearchSpace:
    overrides = {}
    for name, flag in GRID_FLAGS.items():
        text = getattr(args, flag[2:].replace("-", "_"))
        if text:
            cast = tuner.FIELD_PARSERS[name]
            overrides[name] = tuple(_flag_value(flag, tok.strip(), cast) for tok in text.split(",") if tok.strip())
    return tuner.SearchSpace(**overrides)


def cmd_tune(args) -> int:
    budget = _budget_from_args(args)
    source, heatmap_id = parse_heatmap_spec(args.heatmap)
    insts = load_instance_dir(args.instances)
    metric = instances.Metric.EUC2D_INT if args.metric == "int" else instances.Metric.EUC2D_REAL
    space = _space_from_args(args)
    evaluator = tuner.make_benchmark_evaluator(insts, source, budget, args.seed, jobs=args.jobs, metric=metric)
    if args.subset is not None:
        print("warning: --subset evaluates a sample of the grid; shapley output is skipped", file=sys.stderr)
    report = tuner.tune(space, evaluator, subset=args.subset, subset_seed=args.seed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report.write_csv(out / "tuning.csv")
    if report.shapley is not None:
        report.write_shapley_csv(out / "shapley.csv")
    tuner.write_params_file(report.best_config, out / "best_config.txt")
    print(f"best config {tuner.config_id(report.best_config)} "
          f"mean gap {report.best_gap:.4f}% ({heatmap_id}) -> {out}")
    return EXIT_OK


def cmd_analyze_knn(args) -> int:
    dists = []
    for path in _instance_files(args.instances):
        inst = instances.load_instance(path)
        dm = instances.distance_matrix(inst)
        if args.oracle:
            tour = tours.exact_solve(dm)
        else:
            if not args.tours:
                raise UsageError("provide --tours DIR or --oracle")
            tour_path = Path(args.tours) / (path.stem + ".tour")
            if not tour_path.exists():
                raise FileNotFoundError(f"missing tour file: {tour_path}")
            tour = tours.make_tour(tours.parse_tour(tour_path.read_text()), dm)
        dists.append(knn_stats.per_instance_distribution(dm, tour))
    combined = knn_stats.aggregate(dists)
    knn_stats.write_distribution_csv(combined, args.out)
    if args.emit_prior:
        heatmaps.save_prior(heatmaps.PriorVector(masses=combined.masses), args.emit_prior)
    top5 = knn_stats.cumulative_mass(combined, 5)
    print(f"{len(dists)} instances, support {combined.support}, top-5 mass {top5:.4f} -> {args.out}")
    return EXIT_OK


def _report_numbers(path: str, line: int, row: dict) -> list[float]:
    """A results row's length, gap_pct and time_s; a missing field or a malformed number is a config error."""
    if missing := [col for col in REPORT_COLUMNS if row[col] is None]:
        raise ValueError(f"{path}: line {line}: missing {', '.join(missing)}")
    try:
        return [float(row[col]) for col in REPORT_COLUMNS[2:]]
    except ValueError as exc:
        raise ValueError(f"{path}: line {line}: {exc}") from None


def cmd_report(args) -> int:
    groups: dict[tuple[str, str], list[list[float]]] = {}
    for path in args.inputs:
        with open(path, newline="") as f:
            reader = csv.DictReader(f)
            missing = sorted(set(REPORT_COLUMNS) - set(reader.fieldnames or ()))
            if missing:
                raise ValueError(f"{path}: missing columns {', '.join(missing)}")
            for row in reader:
                numbers = _report_numbers(path, reader.line_num, row)
                groups.setdefault((row["heatmap"], row["config"]), []).append(numbers)
    lines = [
        "| Heatmap | Config | Instances | Mean Length | Mean Gap | Mean Time |",
        "|---|---|---|---|---|---|",
    ]
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
    parser = argparse.ArgumentParser(prog="tspmcts", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate instance files")
    p.add_argument("--n", type=int_at_least(3), required=True)
    p.add_argument("--count", type=int_at_least(1), required=True)
    p.add_argument("--dist", choices=["uniform", "cluster", "explosion", "implosion"], default="uniform")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--clusters", type=int, default=5)
    p.add_argument("--spread", type=float, default=0.05)
    p.add_argument("--center-x", dest="center_x", type=float, default=0.5)
    p.add_argument("--center-y", dest="center_y", type=float, default=0.5)
    p.add_argument("--radius", type=float, default=0.2)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="solve an instance directory, emit a results CSV")
    p.add_argument("--instances", required=True)
    p.add_argument("--refs", help="directory of <instance>.tour reference files")
    p.add_argument("--out", required=True)
    _add_common_args(p)
    _add_param_args(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("tune", help="grid-search solver hyperparameters")
    p.add_argument("--instances", required=True)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--subset", type=int_at_least(1), help="evaluate a random config sample (skips shapley)")
    for flag in GRID_FLAGS.values():
        p.add_argument(flag, help="comma-separated grid values")
    _add_common_args(p)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("analyze-knn", help="neighbor-rank distribution of (near-)optimal tours")
    p.add_argument("--instances", required=True)
    p.add_argument("--tours", help="directory of <instance>.tour files")
    p.add_argument("--oracle", action="store_true", help="exact-solve instances (n <= 18)")
    p.add_argument("--out", required=True)
    p.add_argument("--emit-prior", dest="emit_prior", help="also write a prior vector file")
    p.set_defaults(func=cmd_analyze_knn)

    p = sub.add_parser("report", help="merge results CSVs into a Markdown summary")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
