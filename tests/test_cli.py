import csv
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from tspmcts import tuner
from tspmcts.cli import main
from tspmcts.evalkit import RESULT_CSV_HEADER
from tspmcts.heatmaps import load_prior
from tspmcts.instances import distance_matrix, generate_uniform, load_instance, nearest_neighbor_ranks, write_native
from tspmcts.knn_stats import EmpiricalDistribution, write_distribution_csv
from tspmcts.tours import exact_solve, two_opt, make_tour, write_tour

from conftest import circle_instance, dm_and_ranks


def run(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture
def instance_dir(tmp_path):
    out = tmp_path / "insts"
    assert run("gen", "--n", 10, "--count", 4, "--dist", "uniform", "--seed", 3, "--out", out) == 0
    return out


class TestGen:
    def test_writes_files_and_manifest(self, tmp_path):
        out = tmp_path / "d"
        assert run("gen", "--n", 12, "--count", 20, "--dist", "uniform", "--seed", 1, "--out", out) == 0
        files = sorted(out.glob("*.txt"))
        assert len(files) == 20
        manifest = (out / "manifest.csv").read_text().strip().splitlines()
        assert manifest[0] == "file,id,n,dist,seed"
        assert len(manifest) == 21
        inst = load_instance(files[0])
        assert inst.n == 12

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("gen", "--n", 8, "--count", 3, "--seed", 9, "--out", out) == 0
        for fa, fb in zip(sorted(a.glob("*")), sorted(b.glob("*"))):
            assert fa.read_bytes() == fb.read_bytes()

    def test_cluster_dispatch(self, tmp_path):
        out = tmp_path / "c"
        assert run("gen", "--n", 30, "--count", 2, "--dist", "cluster", "--clusters", 5,
                   "--seed", 0, "--out", out) == 0
        rows = list(csv.DictReader(open(out / "manifest.csv")))
        assert all(r["dist"] == "cluster" for r in rows)
        assert all("cluster" in r["id"] for r in rows)

    @pytest.mark.parametrize("count", [0, -1])
    def test_count_below_one_usage_error(self, tmp_path, capsys, count):
        with pytest.raises(SystemExit) as exc:
            run("gen", "--n", 8, "--count", count, "--out", tmp_path / "d")
        assert exc.value.code == 2
        assert "--count" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("n", [2, 0])
    def test_n_below_three_usage_error(self, tmp_path, capsys, n):
        with pytest.raises(SystemExit) as exc:
            run("gen", "--n", n, "--count", 1, "--out", tmp_path / "d")
        assert exc.value.code == 2
        assert "--n" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("dist, flag, value", [("cluster", "--clusters", 0), ("cluster", "--spread", 0),
                                                   ("explosion", "--radius", 0.6)])
    def test_bad_structured_parameter_creates_nothing(self, tmp_path, dist, flag, value):
        assert run("gen", "--n", 8, "--count", 1, "--dist", dist, flag, value, "--out", tmp_path / "d") == 4
        assert not (tmp_path / "d").exists()


class TestSolve:
    def test_zero_heatmap_run(self, instance_dir, tmp_path):
        out = tmp_path / "res.csv"
        code = run("solve", "--instances", instance_dir, "--heatmap", "zero",
                   "--use-heatmap", "false", "--max-iters", 500, "--out", out)
        assert code == 0
        rows = list(csv.DictReader(open(out)))
        assert len(rows) == 4
        assert list(rows[0].keys()) == RESULT_CSV_HEADER
        for r in rows:
            assert float(r["gap_pct"]) >= -1e-9
            assert float(r["ref_length"]) > 0

    def test_builtin_prior_on_500_cities(self, tmp_path):
        inst_dir = tmp_path / "insts"
        inst_dir.mkdir()
        ref_dir = tmp_path / "refs"
        ref_dir.mkdir()
        inst = generate_uniform(500, 0)
        (inst_dir / "big.txt").write_text(write_native(inst))
        dm, _ = dm_and_ranks(inst)
        # cheap reference: nearest-neighbor-ish tour polished by 2-opt
        ref = two_opt(make_tour(np.arange(500), dm), dm, max_passes=1)
        (ref_dir / "big.tour").write_text(write_tour(ref.order))
        out = tmp_path / "res.csv"
        code = run("solve", "--instances", inst_dir, "--refs", ref_dir,
                   "--heatmap", "gtprior:tsp500", "--max-iters", 60, "--out", out)
        assert code == 0
        rows = list(csv.DictReader(open(out)))
        assert len(rows) == 1
        assert rows[0]["heatmap"] == "gtprior:tsp500"

    def test_unknown_heatmap_spec_usage_error(self, instance_dir, tmp_path):
        code = run("solve", "--instances", instance_dir, "--heatmap", "mystery",
                   "--max-iters", 10, "--out", tmp_path / "x.csv")
        assert code == 2

    def test_budget_required(self, instance_dir, tmp_path):
        code = run("solve", "--instances", instance_dir, "--heatmap", "zero",
                   "--out", tmp_path / "x.csv")
        assert code == 2
        code = run("solve", "--instances", instance_dir, "--heatmap", "zero",
                   "--time-factor", 0.01, "--max-iters", 10, "--out", tmp_path / "x.csv")
        assert code == 2

    def test_missing_instance_dir_io_error(self, tmp_path):
        code = run("solve", "--instances", tmp_path / "nope", "--heatmap", "zero",
                   "--max-iters", 10, "--out", tmp_path / "x.csv")
        assert code == 3

    def test_missing_heatmap_file_io_error(self, instance_dir, tmp_path):
        code = run("solve", "--instances", instance_dir, "--heatmap", "file:/does/not/exist.txt",
                   "--max-iters", 10, "--out", tmp_path / "x.csv")
        assert code == 3

    def test_dimension_mismatch_config_error(self, instance_dir, tmp_path):
        hm_path = tmp_path / "hm.txt"
        hm_path.write_text("4 1\n0 1 0.5\n")  # wrong n for 10-city instances
        code = run("solve", "--instances", instance_dir, "--heatmap", f"file:{hm_path}",
                   "--max-iters", 10, "--out", tmp_path / "x.csv")
        assert code == 4

    @pytest.mark.parametrize("n", [4, 20])
    def test_non_finite_coordinate_config_error(self, tmp_path, capsys, n):
        inst_dir, ref_dir = tmp_path / "insts", tmp_path / "refs"
        inst_dir.mkdir()
        ref_dir.mkdir()
        points = generate_uniform(n, 0).points
        lines = [f"n {n}", "nan 0.5"] + [f"{x:.17g} {y:.17g}" for x, y in points[1:]]
        (inst_dir / "bad.txt").write_text("\n".join(lines) + "\n")
        (ref_dir / "bad.tour").write_text(write_tour(np.arange(n)))
        code = run("solve", "--instances", inst_dir, "--refs", ref_dir, "--heatmap", "zero",
                   "--max-iters", 50, "--out", tmp_path / "x.csv")
        err = capsys.readouterr().err
        assert code == 4
        assert "error" in err and "non-finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text, line", [
        ("10 1\n0 x 0.5\n", 2),
        ("a b\n0 1 0.5\n", 1),
        ("10 2\n0 1 0.5\n0 1 0.25\n", 3),
    ], ids=["bad-neighbor", "bad-header", "repeated-entry"])
    def test_malformed_heatmap_file_names_line(self, instance_dir, tmp_path, capsys, text, line):
        hm_path = tmp_path / "hm.txt"
        hm_path.write_text(text)
        code = run("solve", "--instances", instance_dir, "--heatmap", f"file:{hm_path}",
                   "--max-iters", 10, "--out", tmp_path / "x.csv")
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith(f"config error: line {line}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("spec, code", [("softdist:abc", 2), ("softdist:1e", 2), ("softdist:-1", 4)])
    def test_softdist_temperature(self, instance_dir, tmp_path, capsys, spec, code):
        assert run("solve", "--instances", instance_dir, "--heatmap", spec,
                   "--max-iters", 10, "--out", tmp_path / "x.csv") == code
        err = capsys.readouterr().err
        if code == 2:
            assert err.startswith("error:") and "--heatmap" in err
        else:
            assert err.startswith("config error:")
        assert "Traceback" not in err

    def test_malformed_use_heatmap_usage_error(self, instance_dir, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("solve", "--instances", instance_dir, "--heatmap", "zero", "--use-heatmap", "ture",
                "--max-iters", 10, "--out", tmp_path / "x.csv")
        assert exc.value.code == 2
        assert "--use-heatmap" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_malformed_params_file_boolean_config_error(self, instance_dir, tmp_path, capsys):
        params = tmp_path / "params.txt"
        params.write_text("alpha=1\nuse_heatmap=Ture\n")
        code = run("solve", "--instances", instance_dir, "--heatmap", "zero", "--params", params,
                   "--max-iters", 10, "--out", tmp_path / "x.csv")
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("config error:") and "use_heatmap: 'Ture'" in err

    @pytest.mark.parametrize("jobs", [0, -4])
    def test_jobs_below_one_usage_error(self, instance_dir, tmp_path, capsys, jobs):
        with pytest.raises(SystemExit) as exc:
            run("solve", "--instances", instance_dir, "--heatmap", "zero", "--jobs", jobs,
                "--max-iters", 10, "--out", tmp_path / "x.csv")
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_idempotent_outputs(self, instance_dir, tmp_path):
        args = ("solve", "--instances", instance_dir, "--heatmap", "zero",
                "--use-heatmap", "false", "--max-iters", 300, "--seed", 7)
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(*args, "--out", out_a) == 0
        assert run(*args, "--out", out_b) == 0
        strip = lambda p: [
            ",".join(v for k, v in row.items() if k != "time_s")
            for row in csv.DictReader(open(p))
        ]
        assert strip(out_a) == strip(out_b)


class TestTune:
    def test_reduced_grid_csv(self, tmp_path, instance_dir):
        out = tmp_path / "tune"
        code = run("tune", "--instances", instance_dir, "--heatmap", "zero",
                   "--max-iters", 100, "--out-dir", out,
                   "--alpha-values", "0,1", "--beta-values", "10,100",
                   "--max-depth-values", "10", "--mcn-values", "5",
                   "--param-h-values", "2", "--use-heatmap-values", "false")
        assert code == 0
        rows = list(csv.DictReader(open(out / "tuning.csv")))
        assert len(rows) == 4
        best = (out / "best_config.txt").read_text()
        assert "alpha=" in best and "use_heatmap=False" in best
        # shapley CSV covers the full (reduced) grid: 4 configs x 6 params
        shap_rows = list(csv.DictReader(open(out / "shapley.csv")))
        assert len(shap_rows) == 24
        by_config = {}
        for r in shap_rows:
            by_config.setdefault(r["config_id"], 0.0)
            by_config[r["config_id"]] += float(r["phi"])
        gaps = {r["config_id"]: float(r["mean_gap"]) for r in rows}
        grand = sum(gaps.values()) / len(gaps)
        for cid, total in by_config.items():
            assert total == pytest.approx(gaps[cid] - grand, abs=1e-9)

    @pytest.mark.parametrize("flag, values", [
        ("--alpha-values", "1,x"), ("--beta-values", "10,1O0"), ("--max-depth-values", "10,1.5"),
        ("--mcn-values", "5,many"), ("--param-h-values", "2,h"),
    ])
    def test_malformed_grid_value_usage_error(self, tmp_path, instance_dir, capsys, flag, values):
        code = run("tune", "--instances", instance_dir, "--heatmap", "zero",
                   "--max-iters", 10, "--out-dir", tmp_path / "tune", flag, values)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and flag in err
        assert not (tmp_path / "tune").exists()

    def test_malformed_use_heatmap_values_usage_error(self, tmp_path, instance_dir, capsys):
        code = run("tune", "--instances", instance_dir, "--heatmap", "zero", "--max-iters", 10,
                   "--out-dir", tmp_path / "tune", "--use-heatmap-values", "false, tru")
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "--use-heatmap-values" in err
        assert not (tmp_path / "tune").exists()

    @pytest.mark.parametrize("flag, values", [("--alpha-values", "-1"), ("--beta-values", "10,10")])
    def test_invalid_grid_value_config_error(self, tmp_path, instance_dir, capsys, flag, values):
        code = run("tune", "--instances", instance_dir, "--heatmap", "zero",
                   "--max-iters", 10, "--out-dir", tmp_path / "tune", flag, values)
        assert code == 4
        assert capsys.readouterr().err.startswith("config error:")

    def test_best_config_feeds_solve(self, tmp_path, instance_dir):
        out = tmp_path / "tune"
        assert run("tune", "--instances", instance_dir, "--heatmap", "zero",
                   "--max-iters", 50, "--out-dir", out,
                   "--alpha-values", "0,1", "--beta-values", "10",
                   "--max-depth-values", "10", "--mcn-values", "5",
                   "--param-h-values", "2", "--use-heatmap-values", "false") == 0
        res = tmp_path / "res.csv"
        code = run("solve", "--instances", instance_dir, "--heatmap", "zero",
                   "--params", out / "best_config.txt", "--max-iters", 100, "--out", res)
        assert code == 0
        rows = list(csv.DictReader(open(res)))
        assert rows and rows[0]["config"].startswith("a")

    def test_subset_skips_shapley(self, tmp_path, instance_dir, capsys):
        out = tmp_path / "tune"
        code = run("tune", "--instances", instance_dir, "--heatmap", "zero",
                   "--max-iters", 50, "--out-dir", out, "--subset", 3,
                   "--alpha-values", "0,1", "--beta-values", "10,100",
                   "--max-depth-values", "10,50", "--mcn-values", "5",
                   "--param-h-values", "2", "--use-heatmap-values", "false")
        assert code == 0
        rows = list(csv.DictReader(open(out / "tuning.csv")))
        assert len(rows) == 3
        assert not (out / "shapley.csv").exists()
        assert "subset" in capsys.readouterr().err

    def test_attribution_pass_runs_once(self, tmp_path, instance_dir, monkeypatch):
        passes = []
        original = tuner._attributions
        monkeypatch.setattr(tuner, "_attributions", lambda *args: passes.append(args) or original(*args))
        grid = ("--alpha-values", "0,1", "--beta-values", "10,100", "--max-depth-values", "10",
                "--mcn-values", "5", "--param-h-values", "2", "--use-heatmap-values", "false")
        args = ("tune", "--instances", instance_dir, "--heatmap", "zero", "--max-iters", 20, *grid)
        assert run(*args, "--out-dir", tmp_path / "full") == 0
        assert len(passes) == 1
        assert len(list(csv.DictReader(open(tmp_path / "full" / "shapley.csv")))) == 24
        assert run(*args, "--subset", 2, "--out-dir", tmp_path / "subset") == 0
        assert len(passes) == 1
        assert not (tmp_path / "subset" / "shapley.csv").exists()

    def test_jobs_below_one_usage_error(self, tmp_path, instance_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            run("tune", "--instances", instance_dir, "--heatmap", "zero", "--max-iters", 10,
                "--out-dir", tmp_path / "tune", "--jobs", 0)
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "tune").exists()

    def test_subset_below_one_usage_error(self, tmp_path, instance_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            run("tune", "--instances", instance_dir, "--heatmap", "zero", "--max-iters", 10,
                "--out-dir", tmp_path / "tune", "--subset", 0)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--subset" in err and "warning" not in err
        assert not (tmp_path / "tune").exists()


class TestAnalyzeKnn:
    def test_oracle_distribution(self, tmp_path, instance_dir):
        out = tmp_path / "knn.csv"
        prior_path = tmp_path / "prior.txt"
        code = run("analyze-knn", "--instances", instance_dir, "--oracle",
                   "--out", out, "--emit-prior", prior_path)
        assert code == 0
        rows = list(csv.DictReader(open(out)))
        total = sum(float(r["mass"]) for r in rows)
        assert total == pytest.approx(1.0, abs=1e-9)
        assert float(rows[-1]["cumulative"]) == pytest.approx(1.0, abs=1e-9)
        prior = load_prior(prior_path)
        assert prior.masses.sum() == pytest.approx(1.0, abs=1e-9)

    def test_emitted_prior_feeds_solve(self, tmp_path, instance_dir):
        prior_path = tmp_path / "prior.txt"
        assert run("analyze-knn", "--instances", instance_dir, "--oracle",
                   "--out", tmp_path / "knn.csv", "--emit-prior", prior_path) == 0
        out = tmp_path / "res.csv"
        code = run("solve", "--instances", instance_dir, "--heatmap", f"gtprior:{prior_path}",
                   "--max-iters", 300, "--out", out)
        assert code == 0
        assert len(list(csv.DictReader(open(out)))) == 4

    def test_circle_instances_cumulative_two(self, tmp_path):
        inst_dir = tmp_path / "circles"
        inst_dir.mkdir()
        for k, n in enumerate((8, 10, 12)):
            (inst_dir / f"c{k}.txt").write_text(write_native(circle_instance(n)))
        out = tmp_path / "knn.csv"
        assert run("analyze-knn", "--instances", inst_dir, "--oracle", "--out", out) == 0
        rows = list(csv.DictReader(open(out)))
        cumulative_two = float(rows[1]["cumulative"])
        assert cumulative_two == pytest.approx(1.0, abs=1e-9)

    def test_requires_tours_or_oracle(self, tmp_path, instance_dir):
        code = run("analyze-knn", "--instances", instance_dir, "--out", tmp_path / "x.csv")
        assert code == 2

    def test_tour_dir_mode(self, tmp_path, instance_dir):
        tour_dir = tmp_path / "tours"
        tour_dir.mkdir()
        files = sorted(instance_dir.glob("*.txt"))
        for f in files:
            inst = load_instance(f)
            dm, _ = dm_and_ranks(inst)
            (tour_dir / f"{f.stem}.tour").write_text(write_tour(exact_solve(dm).order))
        out = tmp_path / "knn.csv"
        assert run("analyze-knn", "--instances", instance_dir, "--tours", tour_dir, "--out", out) == 0
        rows = list(csv.DictReader(open(out)))
        assert sum(float(r["mass"]) for r in rows) == pytest.approx(1.0, abs=1e-9)


class TestReport:
    def test_markdown_summary(self, tmp_path, instance_dir):
        res = tmp_path / "res.csv"
        assert run("solve", "--instances", instance_dir, "--heatmap", "zero",
                   "--use-heatmap", "false", "--max-iters", 200, "--out", res) == 0
        out = tmp_path / "report.md"
        assert run("report", res, "--out", out) == 0
        text = out.read_text()
        assert "| Heatmap | Config |" in text
        assert "zero" in text

    @pytest.mark.parametrize("header, missing", [
        ("a,b", "config, gap_pct, heatmap, length, time_s"),
        ("instance,config,heatmap,length,ref_length,seed", "gap_pct, time_s"),
        ("", "config, gap_pct, heatmap, length, time_s"),
    ])
    def test_not_a_results_csv_config_error(self, tmp_path, capsys, header, missing):
        path = tmp_path / "other.csv"
        path.write_text(header + "\n" + ",".join(["1"] * len(header.split(","))) + "\n" if header else "")
        assert run("report", path) == 4
        err = capsys.readouterr().err
        assert err == f"config error: {path}: missing columns {missing}\n"

    def results_csv(self, tmp_path, *rows):
        path = tmp_path / "res.csv"
        good = "u0,c,zero,1.5,1.0,50.0,0.1,0"
        path.write_text("\n".join([",".join(RESULT_CSV_HEADER), good, *rows]) + "\n")
        return path

    @pytest.mark.parametrize("row, missing", [
        ("u1,c,zero", "length, gap_pct, time_s"),
        ("u1,c", "heatmap, length, gap_pct, time_s"),
        ("u1,c,zero,1.5,1.0,50.0", "time_s"),
    ])
    def test_short_row_config_error(self, tmp_path, capsys, row, missing):
        path = self.results_csv(tmp_path, row)
        assert run("report", path) == 4
        assert capsys.readouterr().err == f"config error: {path}: line 3: missing {missing}\n"

    def test_malformed_number_config_error(self, tmp_path, capsys):
        path = self.results_csv(tmp_path, "u1,c,zero,abc,1.0,50.0,0.1,0")
        assert run("report", path) == 4
        assert capsys.readouterr().err == f"config error: {path}: line 3: could not convert string to float: 'abc'\n"


def child_env() -> dict[str, str]:
    """This environment with the package's source directory first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_cli_import_leaves_the_process_pool_unloaded():
    """Only ``--jobs`` above 1 needs the process pool: importing the CLI loads no multiprocessing."""
    code = "import sys, tspmcts.cli; print([m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


#: Starts the CLI on its arguments and prints the CLI's exit code and its own max RSS (KiB on
#: Linux). A child's ``ru_maxrss`` starts at the RSS of the process that forked it, so the CLI
#: is forked from this small interpreter rather than from the test process.
LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen([sys.executable, "-m", "tspmcts.cli", *sys.argv[1:]], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def cli_in_child(tmp_path, *argv):
    """``tspmcts *argv`` in a grandchild process: (exit code, the CLI's own max RSS in KiB)."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", LAUNCHER, *map(str, argv)], env=child_env(), cwd=tmp_path,
                          capture_output=True, text=True, check=True)
    code, max_rss = map(int, proc.stdout.split())
    print(f"tspmcts {argv[0]}: {time.monotonic() - start:.1f} s wall, {max_rss / 1024:.0f} MB max RSS")
    return code, max_rss


def one_instance(tmp_path, n, order):
    """Uniform instance ``u`` (seed 0) in tmp_path/insts, with ``order`` as its tour ``u.tour`` in tmp_path/tours."""
    (tmp_path / "insts").mkdir()
    (tmp_path / "tours").mkdir()
    inst = generate_uniform(n, 0)
    (tmp_path / "insts" / "u.txt").write_text(write_native(inst))
    (tmp_path / "tours" / "u.tour").write_text(write_tour(order))
    return inst


def solve_one(tmp_path, n, *args):
    """``tspmcts solve`` for one iteration on one uniform instance, its identity tour as reference."""
    one_instance(tmp_path, n, np.arange(n))
    return cli_in_child(tmp_path, "solve", "--instances", tmp_path / "insts", "--refs", tmp_path / "tours",
                        *args, "--max-iters", 1, "--out", tmp_path / "out.csv")


def test_launcher_reads_the_cli_not_the_test_process(tmp_path):
    """Holding 200 MB here must not show in the child's reading."""
    ballast = np.ones(200 * 2**20 // 8)
    code, max_rss = cli_in_child(tmp_path, "--help")
    assert code == 0
    assert ballast.sum() > 0 and max_rss <= 100 * 1024


def test_solve_at_paper_scale_in_bounded_memory(tmp_path):
    """One uniform n=10000 instance through ``tspmcts solve`` in a child process."""
    code, max_rss = solve_one(tmp_path, 10_000, "--heatmap", "gtprior:tsp10000", "--max-candidate-num", "20")
    assert code == 0
    assert max_rss <= 1024 * 1024  # KiB on Linux: 1 GB


def test_default_candidate_rows_stay_compact(tmp_path):
    """n=2000 with the default 1000 candidates per city: 2M own entries in
    (n, mcn) arrays. Measured about 88 MB max RSS on a 2-CPU host (106 MB
    with exp(P) stored for every candidate, 122 MB with a reverse-entry copy
    of each one-way edge, 252 MB with per-row Python lists and slot dicts)."""
    code, max_rss = solve_one(tmp_path, 2000, "--heatmap", "gtprior:tsp1000")
    assert code == 0
    assert max_rss <= 150 * 1024  # KiB on Linux


def test_analyze_knn_at_paper_scale_in_bounded_memory(tmp_path):
    """``analyze-knn`` ranks tour edges from blocks of distance rows: at n=10000 the
    full rank table and its inverse (400 MB each) are never built. Measured about
    35 MB max RSS on a 2-CPU host, against 797 MB with the inverse."""
    one_instance(tmp_path, 10_000, np.random.default_rng(0).permutation(10_000))
    code, max_rss = cli_in_child(tmp_path, "analyze-knn", "--instances", tmp_path / "insts",
                                 "--tours", tmp_path / "tours", "--out", tmp_path / "knn.csv")
    assert code == 0
    assert max_rss <= 100 * 1024  # KiB on Linux


def test_analyze_knn_matches_the_rank_inverse(tmp_path):
    """At n=2000 the CSV equals one counted from the full rank table's n x n inverse."""
    n = 2000
    order = np.random.default_rng(1).permutation(n)
    inst = one_instance(tmp_path, n, order)
    assert run("analyze-knn", "--instances", tmp_path / "insts", "--tours", tmp_path / "tours",
               "--out", tmp_path / "knn.csv") == 0
    inverse = nearest_neighbor_ranks(distance_matrix(inst)).inverse
    succ = np.roll(order, -1)
    counts = np.bincount(np.concatenate((inverse[order, succ], inverse[succ, order])) - 1, minlength=n - 1)
    support = int(np.flatnonzero(counts)[-1]) + 1
    expected = EmpiricalDistribution(masses=counts[:support] / counts.sum(), sample_count=1)
    write_distribution_csv(expected, tmp_path / "expected.csv")
    assert (tmp_path / "knn.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
