import concurrent.futures
import contextlib
import csv
import io
import os
import re
import subprocess
import sys
import time
import warnings
import weakref
from types import SimpleNamespace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tspmcts import evalkit, mcts, tuner
from tspmcts.cli import UsageError, build_parser, load_instance_dir, main
from tspmcts.evalkit import RESULT_CSV_HEADER
from tspmcts.heatmaps import PriorVector, ZeroSource, load_prior, write_distribution_csv
from tspmcts.instances import distance_matrix, generate_uniform, load_instance, nearest_neighbor_ranks, write_native
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
        assert run("gen", "--n", 8, "--count", count, "--out", tmp_path / "d") == 2
        assert capsys.readouterr().err == f"error: argument --count: must be at least 1, got {count}\n"
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("n", [2, 0])
    def test_n_below_three_usage_error(self, tmp_path, capsys, n):
        assert run("gen", "--n", n, "--count", 1, "--out", tmp_path / "d") == 2
        assert capsys.readouterr().err == f"error: argument --n: must be at least 3, got {n}\n"
        assert not (tmp_path / "d").exists()

    def test_negative_seed_usage_error(self, tmp_path, capsys):
        assert run("gen", "--n", 8, "--count", 1, "--seed", -1, "--out", tmp_path / "d") == 2
        assert capsys.readouterr().err == "error: argument --seed: must be at least 0, got -1\n"
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("dist, flag, value", [("cluster", "--clusters", 0), ("cluster", "--spread", 0),
                                                   ("explosion", "--radius", 0.6)])
    def test_bad_structured_parameter_creates_nothing(self, tmp_path, dist, flag, value):
        assert run("gen", "--n", 8, "--count", 1, "--dist", dist, flag, value, "--out", tmp_path / "d") == 4
        assert not (tmp_path / "d").exists()

    def test_spread_not_finite_config_error(self, tmp_path, capsys):
        """Noise of spread inf would clip every city to a corner of the unit square."""
        assert run("gen", "--n", 6, "--count", 1, "--dist", "cluster", "--spread", "inf", "--out", tmp_path / "d") == 4
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "spread" in err and err.count("\n") == 1
        assert not (tmp_path / "d").exists()

    # 10**13 points (or cluster centers) need 146 TiB, which numpy refuses at once; a size the
    # kernel might grant (about 10**10 elements or less) would be filled and could exhaust the host.
    @pytest.mark.parametrize("args", [("--n", 10**13), ("--n", 5, "--dist", "cluster", "--clusters", 10**13)],
                             ids=["n", "clusters"])
    def test_size_too_large_to_allocate_config_error(self, tmp_path, capsys, args):
        assert run("gen", *args, "--count", 1, "--out", tmp_path / "d") == 4
        err = capsys.readouterr().err
        assert err.startswith("config error: Unable to allocate ") and err.count("\n") == 1
        assert not (tmp_path / "d").exists()


@pytest.fixture
def eil51_dirs(tmp_path):
    """(instance directory, reference directory) holding TSPLIB's eil51 and its optimal tour."""
    data = Path(__file__).parent / "data"
    inst_dir, ref_dir = tmp_path / "eil51", tmp_path / "eil51-refs"
    inst_dir.mkdir()
    ref_dir.mkdir()
    (inst_dir / "eil51.tsp").write_text((data / "eil51.tsp").read_text())
    (ref_dir / "eil51.tour").write_text((data / "eil51.opt.tour").read_text())
    return inst_dir, ref_dir


class TestSolve:
    def test_tsplib_file_is_measured_in_nint(self, eil51_dirs, tmp_path):
        """A TSPLIB EUC_2D file sets its own metric: the optimal tour is the published 426 with no flag."""
        inst_dir, ref_dir = eil51_dirs
        out = tmp_path / "eil51.csv"
        assert run("solve", "--instances", inst_dir, "--refs", ref_dir, "--heatmap", "gtprior:tsp500",
                   "--max-iters", 200, "--out", out) == 0
        (row,) = csv.DictReader(open(out))
        assert float(row["ref_length"]) == 426
        assert float(row["length"]) == round(float(row["length"])) and float(row["gap_pct"]) >= 0

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
        assert err.startswith(f"config error: {hm_path}: line {line}: ")
        assert "Traceback" not in err

    def test_undecodable_heatmap_file_names_it(self, instance_dir, tmp_path, capsys):
        hm_path = tmp_path / "hm.txt"
        hm_path.write_bytes(b"10 1\n0 1 \xff\n")
        assert run("solve", "--instances", instance_dir, "--heatmap", f"file:{hm_path}",
                   "--max-iters", 10, "--out", tmp_path / "x.csv") == 4
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {hm_path}: 'utf-8' codec can't decode byte 0xff") and err.count("\n") == 1

    @pytest.mark.parametrize("name, text, message", [
        ("wide.txt", "n 4\n0 0\n1e308 0\n-1e308 0\n0 1e308\n",
         "instance 'wide' spans inf by 1e+308: its tour lengths overflow EUC2D_REAL"),
        ("wide.tsp", "NAME : wide\nDIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n1 0 0\n2 1e19 0\n3 0 1e19\nEOF\n",
         "instance 'wide' spans 1e+19 by 1e+19: its tour lengths overflow EUC2D_INT"),
    ], ids=["native-past-float", "tsplib-past-int64"])
    def test_overflowing_coordinates_config_error(self, tmp_path, capsys, name, text, message):
        """Distances past the float range, or nint tour lengths past int64, are rejected as the file is read."""
        inst_dir = tmp_path / "insts"
        inst_dir.mkdir()
        (inst_dir / name).write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("solve", "--instances", inst_dir, "--heatmap", "zero", "--max-iters", 10,
                       "--out", tmp_path / "x.csv") == 4
        assert capsys.readouterr().err == f"config error: {inst_dir / name}: {message}\n"

    # softdist:inf would tie every probability of a row and keep the lowest indices, not the nearest cities.
    @pytest.mark.parametrize("spec, code", [("softdist:abc", 2), ("softdist:1e", 2), ("softdist:-1", 2), ("softdist:0", 2),
                                            ("softdist:nan", 2), ("softdist:inf", 2), ("softdist:1e-320", 4)])
    def test_softdist_temperature(self, instance_dir, tmp_path, capsys, spec, code):
        """A malformed TAU, or one not finite and positive, is a usage error on --heatmap, named by the
        rule it broke; a TAU too small for an instance's distances is a config error on that instance."""
        assert run("solve", "--instances", instance_dir, "--heatmap", spec,
                   "--max-iters", 10, "--out", tmp_path / "x.csv") == code
        err = capsys.readouterr().err
        tau = spec.partition(":")[2]
        try:
            rule = f"softdist tau must be finite and positive, got {float(tau)}"
        except ValueError:
            rule = f"invalid heatmap_spec value: {spec!r}"
        if code == 2:
            assert err == f"error: argument --heatmap: {rule}\n"
        else:
            assert err.startswith(f"config error: softdist tau {tau} is too small") and err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("inst_text, tour_text, at, message", [
        ("n 3\n0 0\n1 1\n", None, "inst", "expected 3 coordinate lines, found 2"),
        ("n 3\n0 0\n1 1\n0 1\n", "DIMENSION : x\nTOUR_SECTION\n1 2 3\n-1\n", "tour", "bad DIMENSION: 'x'"),
        ("n 3\n0 0\n1 1\n0 1\n", "3\n0 x 2\n", "tour", "bad tour index: 'x'"),
        (b"\xff\xfe n 3\n", None, "inst", "'utf-8' codec can't decode"),
        ("n 3\n0 0\n1 y\n0 1\n", None, "inst", "bad coordinate line: '1 y'"),
        ("n 3\n0 0\n1 1 1\n0 1\n", None, "inst", "coordinate lines must hold exactly two values"),
    ], ids=["short-instance", "tour-dimension", "tour-index", "undecodable-instance", "instance-coordinate",
            "ragged-instance"])
    def test_input_file_errors_name_the_file(self, tmp_path, capsys, inst_text, tour_text, at, message):
        inst_dir, ref_dir = tmp_path / "insts", tmp_path / "refs"
        inst_dir.mkdir()
        ref_dir.mkdir()
        paths = {"inst": inst_dir / "a.txt", "tour": ref_dir / "a.tour"}
        write = paths["inst"].write_bytes if isinstance(inst_text, bytes) else paths["inst"].write_text
        write(inst_text)
        paths["tour"].write_text(tour_text or "3\n0 1 2\n")
        code = run("solve", "--instances", inst_dir, "--refs", ref_dir, "--heatmap", "zero",
                   "--max-iters", 10, "--out", tmp_path / "x.csv")
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith(f"config error: {paths[at]}: {message}") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_load_instance_dir_names_the_file(self, tmp_path):
        (tmp_path / "a.txt").write_text("n 3\n0 0\n1 1\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(tmp_path / 'a.txt'))}: expected 3"):
            load_instance_dir(tmp_path, None)
        (tmp_path / "a.txt").write_text("n 3\n0 0\n1 1\n0 1\n")
        (tmp_path / "a.tour").write_text("3\n0 x 2\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(tmp_path / 'a.tour'))}: bad tour index"):
            load_instance_dir(tmp_path, tmp_path)

    def test_malformed_use_heatmap_usage_error(self, instance_dir, tmp_path, capsys):
        assert run("solve", "--instances", instance_dir, "--heatmap", "zero", "--use-heatmap", "ture",
                   "--max-iters", 10, "--out", tmp_path / "x.csv") == 2
        assert capsys.readouterr().err == "error: argument --use-heatmap: invalid boolean value: 'ture'\n"
        assert not (tmp_path / "x.csv").exists()

    def test_malformed_params_file_boolean_usage_error(self, instance_dir, tmp_path, capsys):
        """A value in an ``@FILE`` is parsed by its flag, as on the command line."""
        params = tmp_path / "params.txt"
        params.write_text("--alpha=1\n--use-heatmap=Ture\n")
        assert run("solve", "--instances", instance_dir, "--heatmap", "zero", f"@{params}",
                   "--max-iters", 10, "--out", tmp_path / "x.csv") == 2
        assert capsys.readouterr().err == "error: argument --use-heatmap: invalid boolean value: 'Ture'\n"
        assert not (tmp_path / "x.csv").exists()

    def test_flag_file_lines_follow_argument_order(self, instance_dir, tmp_path):
        """``@FILE`` stands for its lines, blank and ``#`` lines skipped, where it appears: a flag
        after it overrides the file, and the file overrides a flag before it."""
        params = tmp_path / "params.txt"
        params.write_text("# tuned\n\n--alpha=0\n  --max-depth=3  \n")
        for order, config in [((f"@{params}", "--alpha", 2), "a2-b10-d3"), (("--alpha", 2, f"@{params}"), "a0-b10-d3")]:
            assert run("solve", "--instances", instance_dir, "--heatmap", "zero", *order,
                       "--max-iters", 10, "--out", tmp_path / "x.csv") == 0
            assert {r["config"] for r in csv.DictReader(open(tmp_path / "x.csv"))} == {config + "-c1000-h10-u1"}

    @pytest.mark.parametrize("name, code, message", [
        ("missing.txt", 3, "I/O error: [Errno 2] No such file or directory: '{}'"),
        ("params", 3, "I/O error: [Errno 21] Is a directory: '{}'"),
        ("binary.txt", 4, "config error: {}: 'utf-8' codec can't decode byte 0xff in position 0"),
    ], ids=["missing", "directory", "undecodable"])
    def test_flag_file_read_errors_name_the_file(self, instance_dir, tmp_path, capsys, name, code, message):
        (tmp_path / "params").mkdir()
        (tmp_path / "binary.txt").write_bytes(b"\xff\xfe--alpha=1\n")
        path = tmp_path / name
        assert run("solve", "--instances", instance_dir, "--heatmap", "zero", f"@{path}",
                   "--max-iters", 10, "--out", tmp_path / "x.csv") == code
        err = capsys.readouterr().err
        assert err.startswith(message.format(path)) and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    def test_params_option_is_gone(self, instance_dir, tmp_path, capsys):
        """A tuned config is passed as ``@FILE``; the ``--params FILE`` option is gone."""
        params = tmp_path / "params.txt"
        params.write_text("--alpha=1\n")
        assert run("solve", "--instances", instance_dir, "--heatmap", "zero", "--params", params,
                   "--max-iters", 10, "--out", tmp_path / "x.csv") == 2
        assert capsys.readouterr().err == f"error: unrecognized arguments: --params {params}\n"

    @pytest.mark.parametrize("jobs", [0, -4])
    def test_jobs_below_one_usage_error(self, instance_dir, tmp_path, capsys, jobs):
        assert run("solve", "--instances", instance_dir, "--heatmap", "zero", "--jobs", jobs,
                   "--max-iters", 10, "--out", tmp_path / "x.csv") == 2
        assert capsys.readouterr().err == f"error: argument --jobs: must be at least 1, got {jobs}\n"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("iters", [0, -5])
    def test_max_iters_below_one_usage_error(self, instance_dir, tmp_path, capsys, iters):
        assert run("solve", "--instances", instance_dir, "--heatmap", "zero", "--max-iters", iters,
                   "--out", tmp_path / "x.csv") == 2
        assert capsys.readouterr().err == (f"error: argument --max-iters: budget value must be finite and positive, "
                                           f"got {iters}\n")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("factor", [0, -1, "nan", "inf"])
    def test_time_factor_not_finite_positive_usage_error(self, instance_dir, tmp_path, capsys, factor):
        assert run("solve", "--instances", instance_dir, "--heatmap", "zero", "--time-factor", factor,
                   "--out", tmp_path / "x.csv") == 2
        assert capsys.readouterr().err == (f"error: argument --time-factor: budget value must be finite and positive, "
                                           f"got {float(factor)}\n")
        assert not (tmp_path / "x.csv").exists()

    def test_zero_reference_length_names_the_instance(self, tmp_path, capsys):
        """Three coincident cities: the oracle's tour has length 0, and the error says whose."""
        inst_dir = tmp_path / "insts"
        inst_dir.mkdir()
        (inst_dir / "dot.txt").write_text("n 3\n0.5 0.5\n0.5 0.5\n0.5 0.5\n")
        code = run("solve", "--instances", inst_dir, "--heatmap", "zero", "--max-iters", 10,
                   "--out", tmp_path / "x.csv")
        assert code == 4
        assert capsys.readouterr().err == "config error: dot: reference length must be positive, got 0.0\n"
        assert not (tmp_path / "x.csv").exists()

    def test_jobs_two_writes_the_serial_csv(self, instance_dir, tmp_path, monkeypatch):
        """The workers prepare the instances: under --jobs 2 this process builds no ``Prepared``, and
        ``solve`` and ``tune`` each start one process pool; ``tune`` writes the serial run's files."""
        built, init = [], evalkit.Prepared.__init__
        pools = []

        def counted_init(self, inst, *fields):
            built.append(inst.id)
            init(self, inst, *fields)

        class CountedPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(evalkit.Prepared, "__init__", counted_init)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
        common = ("--instances", instance_dir, "--heatmap", "gtprior:tsp500", "--max-iters", 300, "--seed", 7)
        out_1, out_2 = tmp_path / "jobs1.csv", tmp_path / "jobs2.csv"
        assert run("solve", *common, "--jobs", 1, "--out", out_1) == 0
        assert len(built) == 4
        assert run("solve", *common, "--jobs", 2, "--out", out_2) == 0
        assert len(built) == 4 and pools == [2]
        strip = lambda p: [{k: v for k, v in row.items() if k != "time_s"} for row in csv.DictReader(open(p))]
        assert len(strip(out_1)) == 4
        assert strip(out_2) == strip(out_1)
        grid = ("--alpha-values", "0,1", "--beta-values", "10", "--max-depth-values", "10", "--mcn-values", "5,20",
                "--param-h-values", "2", "--use-heatmap-values", "true")
        assert run("tune", *common, *grid, "--jobs", 1, "--out-dir", tmp_path / "tune1") == 0
        assert len(built) == 8
        assert run("tune", *common, *grid, "--jobs", 2, "--out-dir", tmp_path / "tune2") == 0
        assert len(built) == 8 and pools == [2, 2]
        for name in ("tuning.csv", "shapley.csv", "best_config.txt"):
            assert (tmp_path / "tune2" / name).read_bytes() == (tmp_path / "tune1" / name).read_bytes()

    @pytest.mark.parametrize("text, code, message", [
        ("4 1\n0 1 0.5\n", 4, "config error: {path}: heatmap file is for n=4, instance has n=10\n"),
        ("10 1\n0 x 0.5\n", 4, "config error: {path}: line 2: expected 'i j p', got '0 x 0.5'\n"),
        (None, 3, "I/O error: [Errno 2] No such file or directory: "),
        ("1000000000000 0\n", 4, "config error: {path}: heatmap file is for n=1000000000000, instance has n=10\n"),
    ], ids=["wrong-n", "malformed-line", "missing-file", "huge-n"])
    def test_worker_errors_keep_their_exit_codes(self, instance_dir, tmp_path, text, code, message):
        """Instances are prepared inside the workers under --jobs 2: their errors reach the
        CLI's exit codes and messages, and stderr shows no traceback."""
        hm_path = tmp_path / "hm.txt"
        if text is not None:
            hm_path.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "tspmcts.cli", "solve", "--instances", str(instance_dir), "--heatmap",
             f"file:{hm_path}", "--max-iters", "10", "--jobs", "2", "--out", str(tmp_path / "x.csv")],
            env=child_env(), capture_output=True, text=True,
        )
        assert proc.returncode == code
        assert proc.stderr.startswith(message.format(path=hm_path))
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_softdist_tau_too_small_config_error(self, instance_dir, tmp_path, jobs):
        """d / tau can overflow for a tau of 1e-320: the heatmap builder rejects it before it
        computes a row, in this process or in a worker, so no numpy warning precedes the error."""
        proc = subprocess.run(
            [sys.executable, "-m", "tspmcts.cli", "solve", "--instances", str(instance_dir), "--heatmap",
             "softdist:1e-320", "--max-iters", "10", "--jobs", str(jobs), "--out", str(tmp_path / "x.csv")],
            env=child_env(), capture_output=True, text=True,
        )
        assert proc.returncode == 4
        assert proc.stderr.startswith("config error: softdist tau 1e-320 is too small: distances up to ")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "x.csv").exists()

    def test_negative_seed_usage_error(self, instance_dir, tmp_path, capsys):
        assert run("solve", "--instances", instance_dir, "--heatmap", "zero", "--seed", -1,
                   "--max-iters", 10, "--out", tmp_path / "x.csv") == 2
        assert capsys.readouterr().err == "error: argument --seed: must be at least 0, got -1\n"
        assert not (tmp_path / "x.csv").exists()

    def test_csv_counts_equal_a_direct_solve(self, instance_dir, tmp_path):
        """The results CSV's sims, restarts and accepts are those of ``mcts.solve`` on the same
        instance at its seed (``--seed`` + index)."""
        out = tmp_path / "x.csv"
        assert run("solve", "--instances", instance_dir, "--heatmap", "zero", "--max-iters", 300, "--seed", 4,
                   "--out", out) == 0
        rows = list(csv.DictReader(open(out)))
        for index, (row, path) in enumerate(zip(rows, sorted(instance_dir.glob("*.txt")), strict=True)):
            prep = evalkit.prepare(load_instance(path), None, ZeroSource())
            result = mcts.solve(prep.inst, prep.dm, prep.ranks, prep.heatmap, mcts.MctsParams(), 4 + index,
                                mcts.Budget("iters", 300))
            assert row["instance"] == prep.inst.id
            assert float(row["length"]) == pytest.approx(result.best_tour.length, abs=1e-9)
            assert (int(row["sims"]), int(row["restarts"]), int(row["accepts"])) == (
                result.simulations, result.restarts, result.moves_accepted)
        assert {row["sims"] for row in rows} == {"300"}

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
        best = (out / "best_config.txt").read_text().splitlines()
        assert [line.partition("=")[0] for line in best] == list(tuner.FIELD_FLAGS.values())
        assert best[-1] == "--use-heatmap=False"
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

    def test_one_preparation_alive_at_a_time(self, tmp_path, instance_dir, monkeypatch):
        """``tune --jobs 1`` prepares an instance, solves it under every config and frees it before the next."""
        refs, live, solve = [], [], evalkit.solve
        init = evalkit.Prepared.__init__

        def tracked_init(self, *fields):
            init(self, *fields)
            refs.append(weakref.ref(self))

        def counting_solve(*args, **kwargs):
            live.append(sum(ref() is not None for ref in refs))
            return solve(*args, **kwargs)

        monkeypatch.setattr(evalkit.Prepared, "__init__", tracked_init)
        monkeypatch.setattr(evalkit, "solve", counting_solve)
        assert run("tune", "--instances", instance_dir, "--heatmap", "zero", "--max-iters", 50, "--jobs", 1,
                   "--out-dir", tmp_path / "tune", "--alpha-values", "0,1", "--beta-values", "10",
                   "--max-depth-values", "10", "--mcn-values", "5,20", "--param-h-values", "2",
                   "--use-heatmap-values", "false") == 0
        assert len(refs) == 4
        assert live == [1] * 16

    def test_refs_gaps_equal_solve_gaps(self, tmp_path):
        """``tune --refs`` evaluates the tasks ``solve --refs`` builds: at n=40, beyond the exact
        oracle, each config's mean gap is the mean of ``solve``'s gaps under that config and seed,
        to within the two CSVs' 9-decimal rounding."""
        inst_dir, ref_dir = tmp_path / "insts", tmp_path / "refs"
        assert run("gen", "--n", 40, "--count", 2, "--seed", 3, "--out", inst_dir) == 0
        ref_dir.mkdir()
        for f in sorted(inst_dir.glob("*.txt")):
            dm = distance_matrix(load_instance(f))
            (ref_dir / f"{f.stem}.tour").write_text(write_tour(two_opt(make_tour(np.arange(40), dm), dm).order))
        common = ("--instances", inst_dir, "--refs", ref_dir, "--heatmap", "zero", "--max-iters", 200, "--seed", 5)
        assert run("tune", *common, "--out-dir", tmp_path / "tune", "--alpha-values", "0,1", "--beta-values", "10",
                   "--max-depth-values", "10,50", "--mcn-values", "5", "--param-h-values", "2",
                   "--use-heatmap-values", "false") == 0
        rows = list(csv.DictReader(open(tmp_path / "tune" / "tuning.csv")))
        assert len(rows) == 4
        for row in rows:
            out = tmp_path / f"{row['config_id']}.csv"
            assert run("solve", *common, "--alpha", row["alpha"], "--beta", row["beta"],
                       "--max-depth", row["max_depth"], "--max-candidate-num", row["mcn"],
                       "--param-h", row["param_h"], "--use-heatmap", row["use_heatmap"], "--out", out) == 0
            solved = list(csv.DictReader(open(out)))
            assert {r["config"] for r in solved} == {row["config_id"]}
            assert float(row["mean_gap"]) == pytest.approx(np.mean([float(r["gap_pct"]) for r in solved]), abs=1e-9)

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

    @pytest.mark.parametrize("flag, values, message", [
        ("--alpha-values", "-1", "alpha must be finite and non-negative, got -1.0"),
        ("--beta-values", "10,10", "search space for beta has duplicates"),
        ("--max-depth-values", "10,0", "max_depth must be >= 1"),
        ("--mcn-values", " , ", "search space for max_candidate_num is empty"),
    ], ids=["--alpha-values--1", "--beta-values-10,10", "--max-depth-values-10,0", "--mcn-values-empty"])
    def test_invalid_grid_value_config_error(self, tmp_path, instance_dir, capsys, flag, values, message):
        """An out-of-range grid value breaks the rule its ``solve`` flag has, and a repeated or empty
        list ``SearchSpace``'s rule: a usage error on the flag (exit 2), as a malformed value is."""
        code = run("tune", "--instances", instance_dir, "--heatmap", "zero",
                   "--max-iters", 10, "--out-dir", tmp_path / "tune", flag, values)
        assert code == 2
        assert capsys.readouterr().err == f"error: argument {flag}: {message}\n"
        assert not (tmp_path / "tune").exists()

    def test_best_config_feeds_solve(self, tmp_path, instance_dir, monkeypatch):
        """``solve @best_config.txt`` writes the results CSV that the best row's six flags, passed
        by hand, write (with the wall clock stopped, so ``time_s`` agrees too)."""
        out = tmp_path / "tune"
        assert run("tune", "--instances", instance_dir, "--heatmap", "zero",
                   "--max-iters", 50, "--out-dir", out,
                   "--alpha-values", "0,1", "--beta-values", "10",
                   "--max-depth-values", "10", "--mcn-values", "5,20",
                   "--param-h-values", "2", "--use-heatmap-values", "false") == 0
        rows = list(csv.DictReader(open(out / "tuning.csv")))
        best = min(rows, key=lambda r: float(r["mean_gap"]))
        monkeypatch.setattr(mcts, "time", SimpleNamespace(monotonic=lambda: 0.0))
        common = ("solve", "--instances", instance_dir, "--heatmap", "zero", "--max-iters", 100)
        assert run(*common, f"@{out / 'best_config.txt'}", "--out", tmp_path / "file.csv") == 0
        assert run(*common, "--alpha", best["alpha"], "--beta", best["beta"], "--max-depth", best["max_depth"],
                   "--max-candidate-num", best["mcn"], "--param-h", best["param_h"],
                   "--use-heatmap", best["use_heatmap"], "--out", tmp_path / "hand.csv") == 0
        assert (tmp_path / "file.csv").read_bytes() == (tmp_path / "hand.csv").read_bytes()
        assert {r["config"] for r in csv.DictReader(open(tmp_path / "file.csv"))} == {best["config_id"]}

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

    def test_jobs_below_one_usage_error(self, tmp_path, instance_dir, capsys):
        assert run("tune", "--instances", instance_dir, "--heatmap", "zero", "--max-iters", 10,
                   "--out-dir", tmp_path / "tune", "--jobs", 0) == 2
        assert capsys.readouterr().err == "error: argument --jobs: must be at least 1, got 0\n"
        assert not (tmp_path / "tune").exists()

    def test_negative_seed_usage_error(self, tmp_path, instance_dir, capsys):
        assert run("tune", "--instances", instance_dir, "--heatmap", "zero", "--max-iters", 10,
                   "--out-dir", tmp_path / "tune", "--seed", -3) == 2
        assert capsys.readouterr().err == "error: argument --seed: must be at least 0, got -3\n"
        assert not (tmp_path / "tune").exists()


class TestAnalyzeKnn:
    def test_oracle_distribution(self, tmp_path, instance_dir):
        out = tmp_path / "knn.csv"
        code = run("analyze-knn", "--instances", instance_dir, "--out", out)
        assert code == 0
        rows = list(csv.DictReader(open(out)))
        total = sum(float(r["mass"]) for r in rows)
        assert total == pytest.approx(1.0, abs=1e-9)
        assert float(rows[-1]["cumulative"]) == pytest.approx(1.0, abs=1e-9)
        prior = load_prior(out)
        assert prior.masses.sum() == pytest.approx(1.0, abs=1e-9)
        assert prior.masses.tolist() == [float(r["mass"]) for r in rows]

    def test_emitted_prior_feeds_solve(self, tmp_path, instance_dir):
        prior_path = tmp_path / "knn.csv"
        assert run("analyze-knn", "--instances", instance_dir, "--out", prior_path) == 0
        out = tmp_path / "res.csv"
        code = run("solve", "--instances", instance_dir, "--heatmap", f"gtprior:{prior_path}",
                   "--max-iters", 300, "--out", out)
        assert code == 0
        assert len(list(csv.DictReader(open(out)))) == 4

    def test_emit_prior_is_gone(self, tmp_path, instance_dir, capsys):
        """The --out CSV is the one prior file; the one-float-per-line file and its flag are gone."""
        assert run("analyze-knn", "--instances", instance_dir, "--out", tmp_path / "knn.csv",
                   "--emit-prior", tmp_path / "prior.txt") == 2
        assert capsys.readouterr().err == f"error: unrecognized arguments: --emit-prior {tmp_path / 'prior.txt'}\n"

    @pytest.mark.parametrize("text, where", [
        ("0.5\n0.3\n0.2\n", ""),
        ("rank,mass,cumulative\n2,0.5,0.5\n1,0.5,1\n", " line 2:"),
        ("rank,cumulative\n1,0.5\n2,1\n", ""),
        ("rank,mass,cumulative\n1,0.5,0.5\n2,nan,nan\n", " line 3:"),
        ("", ""),
    ], ids=["one-float-per-line", "ranks-out-of-order", "no-mass-column", "nan-mass", "empty"])
    def test_malformed_prior_file_config_error(self, tmp_path, instance_dir, capsys, text, where):
        path = tmp_path / "prior.csv"
        path.write_text(text)
        code = run("solve", "--instances", instance_dir, "--heatmap", f"gtprior:{path}",
                   "--max-iters", 10, "--out", tmp_path / "x.csv")
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith(f"config error: {path}:{where} ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    def test_circle_instances_cumulative_two(self, tmp_path):
        inst_dir = tmp_path / "circles"
        inst_dir.mkdir()
        for k, n in enumerate((8, 10, 12)):
            (inst_dir / f"c{k}.txt").write_text(write_native(circle_instance(n)))
        out = tmp_path / "knn.csv"
        assert run("analyze-knn", "--instances", inst_dir, "--out", out) == 0
        rows = list(csv.DictReader(open(out)))
        cumulative_two = float(rows[1]["cumulative"])
        assert cumulative_two == pytest.approx(1.0, abs=1e-9)

    def test_requires_tours_or_oracle(self, tmp_path, instance_dir):
        """Without --refs the tours are the exact oracle's, as for ``solve`` and ``tune``."""
        tour_dir = tmp_path / "tours"
        tour_dir.mkdir()
        for f in sorted(instance_dir.glob("*.txt")):
            (tour_dir / f"{f.stem}.tour").write_text(write_tour(exact_solve(distance_matrix(load_instance(f))).order))
        assert run("analyze-knn", "--instances", instance_dir, "--out", tmp_path / "oracle.csv") == 0
        assert run("analyze-knn", "--instances", instance_dir, "--refs", tour_dir, "--out", tmp_path / "refs.csv") == 0
        assert (tmp_path / "oracle.csv").read_bytes() == (tmp_path / "refs.csv").read_bytes()

    def test_usage_error_before_reading_files(self, tmp_path, capsys):
        """No flag is missing, so the instance directory is read: a missing one is an I/O error."""
        assert run("analyze-knn", "--instances", tmp_path / "nope", "--out", tmp_path / "x.csv") == 3
        err = capsys.readouterr().err
        assert err.startswith("I/O error: ") and str(tmp_path / "nope") in err and err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()

    def test_oracle_above_its_cap_names_the_instance(self, tmp_path, capsys):
        """``solve`` and ``analyze-knn`` take their reference tours from one function: the same error."""
        inst_dir = tmp_path / "u20"
        assert run("gen", "--n", 20, "--count", 2, "--seed", 1, "--out", inst_dir) == 0
        capsys.readouterr()
        for argv in (("solve", "--heatmap", "zero", "--max-iters", 10), ("analyze-knn",)):
            assert run(*argv, "--instances", inst_dir, "--out", tmp_path / "x.csv") == 4
            assert capsys.readouterr().err == (
                "config error: 0000-uniform-n20-s1: no reference tour and n=20 exceeds the exact oracle cap\n")
            assert not (tmp_path / "x.csv").exists()

    def test_tsplib_file_is_ranked_in_nint(self, eil51_dirs, tmp_path):
        """eil51's optimal tour ranked under nint, the metric ``solve`` measures it in: 102 tour-edge ends."""
        inst_dir, ref_dir = eil51_dirs
        assert run("analyze-knn", "--instances", inst_dir, "--refs", ref_dir, "--out", tmp_path / "knn.csv") == 0
        masses = [float(r["mass"]) for r in csv.DictReader(open(tmp_path / "knn.csv"))]
        assert masses[:3] == [45 / 102, 25 / 102, 16 / 102]

    def test_tour_dir_mode(self, tmp_path, instance_dir):
        tour_dir = tmp_path / "tours"
        tour_dir.mkdir()
        files = sorted(instance_dir.glob("*.txt"))
        for f in files:
            inst = load_instance(f)
            dm, _ = dm_and_ranks(inst)
            (tour_dir / f"{f.stem}.tour").write_text(write_tour(exact_solve(dm).order))
        out = tmp_path / "knn.csv"
        assert run("analyze-knn", "--instances", instance_dir, "--refs", tour_dir, "--out", out) == 0
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

    @pytest.mark.parametrize("field, message", [
        ("x" * 131073, "field larger than field limit (131072)"),
        ("1.5\0", None),  # the csv module rejects a NUL byte before Python 3.11; float() does after
    ], ids=["long-field", "nul-byte"])
    def test_unreadable_csv_config_error(self, tmp_path, field, message):
        """A row the csv module cannot read is a config error on its file and line, with no traceback."""
        path = self.results_csv(tmp_path, f"u1,c,zero,{field},1.0,50.0,0.1,0")
        proc = subprocess.run([sys.executable, "-m", "tspmcts.cli", "report", str(path)],
                              env=child_env(), capture_output=True, text=True)
        assert proc.returncode == 4
        assert proc.stderr.startswith(f"config error: {path}: line 3: {message or ''}")
        assert "Traceback" not in proc.stderr

    def test_undecodable_csv_names_it(self, tmp_path, capsys):
        path = self.results_csv(tmp_path, "u1,c,zero,1.5,1.0,50.0,0.1,0")
        path.write_bytes(path.read_bytes().replace(b"u1", b"\xff1"))
        assert run("report", path) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: 'utf-8' codec can't decode byte 0xff") and err.count("\n") == 1

    def test_malformed_number_config_error(self, tmp_path, capsys):
        """A length, gap or time that is not a finite number is a config error on its line."""
        for row, message in [("u1,c,zero,abc,1.0,50.0,0.1,0", "could not convert string to float: 'abc'"),
                             ("u1,c,zero,1.5,1.0,nan,0.1,0", "not finite: gap_pct"),
                             ("u1,c,zero,inf,1.0,50.0,-inf,0", "not finite: length, time_s"),
                             ("u1,c,zero,1.5,1.0,50.0,Infinity,0", "not finite: time_s")]:
            path = self.results_csv(tmp_path, row)
            assert run("report", path) == 4
            assert capsys.readouterr().err == f"config error: {path}: line 3: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (("solve", "--heatmap", "zero", "--max-iters", 10, "--max-c", 5, "--out", "x.csv"),
     "unrecognized arguments: --max-c 5"),
    (("solve", "--heatmap", "zero", "--max-iters", 10, "--max-depth", 0, "--out", "x.csv"),
     "argument --max-depth: max_depth must be >= 1"),
    (("solve", "--heatmap", "zero", "--out", "x.csv"), "one of the arguments --time-factor --max-iters is required"),
    (("solve", "--heatmap", "zero", "--max-iters", "1e3", "--out", "x.csv"),
     "argument --max-iters: invalid int value: '1e3'"),
    (("solve", "--heatmap", "mystery", "--max-iters", 10, "--out", "x.csv"),
     "argument --heatmap: not zero, softdist:TAU, gtprior:NAME-or-FILE or file:PATH: 'mystery'"),
    (("solve", "--heatmap", "zero", "--max-iters", 10, "--metric", "int", "--out", "x.csv"),
     "unrecognized arguments: --metric int"),
    (("analyze-knn", "--oracle", "--out", "x.csv"), "unrecognized arguments: --oracle"),
    (("analyze-knn", "--tours", "tours", "--out", "x.csv"), "unrecognized arguments: --tours tours"),
], ids=["abbreviation", "max-depth", "no-budget", "max-iters-float", "heatmap-kind", "metric", "oracle", "tours"])
def test_usage_error_is_one_line_naming_the_flag(instance_dir, tmp_path, capsys, argv, message):
    """Every bad flag or flag value is returned by ``main`` as exit 2 with one stderr line, before
    any file is read or written; argparse prints no usage and raises no ``SystemExit``."""
    command, *rest = argv
    assert run(command, "--instances", instance_dir, *[tmp_path / a if a == "x.csv" else a for a in rest]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "x.csv").exists()


def test_flag_abbreviation_in_a_flag_file_usage_error(instance_dir, tmp_path, capsys):
    """A truncated line of a tuned config is not taken for the flag it starts."""
    (tmp_path / "best.txt").write_text("--alpha=0\n--max-cand=5\n")
    assert run("solve", "--instances", instance_dir, "--heatmap", "zero", f"@{tmp_path / 'best.txt'}",
               "--max-iters", 10, "--out", tmp_path / "x.csv") == 2
    assert capsys.readouterr().err == "error: unrecognized arguments: --max-cand=5\n"


@pytest.mark.parametrize("argv", [("--help",), ("solve", "--help"), ("tune", "-h")])
def test_help_is_the_one_exit_through_argparse(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: tspmcts")


#: tune's grid flag of each solver parameter.
GRID_FLAGS = {"alpha": "--alpha-values", "beta": "--beta-values", "max_depth": "--max-depth-values",
              "max_candidate_num": "--mcn-values", "param_h": "--param-h-values", "use_heatmap": "--use-heatmap-values"}
#: Texts near every rule: numbers in and out of range, non-finite floats, floats for ints, booleans, junk.
VALUE_TEXT = st.one_of(
    st.integers(-3, 3).map(str), st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["1e400", "-0", "1_000", " 7 ", "2.5", "", "true", "No", "tru", "0x10", "\u0661"]), st.text(max_size=6))


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(tuner.PARAM_FIELDS), grid=st.booleans(), data=st.data())
def test_solver_flag_parses_to_the_stored_value_or_exits_2(name, grid, data):
    """Any text for a solver flag or a grid flag either parses to exactly the value(s) ``MctsParams``
    (and ``SearchSpace``) store, or is a usage error (exit 2) on one stderr line that names the flag.
    It is never a config error (exit 4) and never a traceback."""
    text = data.draw(st.lists(VALUE_TEXT, max_size=4).map(",".join) if grid else VALUE_TEXT)
    flag = GRID_FLAGS[name] if grid else tuner.FIELD_FLAGS[name]
    out = ("--out-dir", "no-such-dir") if grid else ("--out", "no-such.csv")
    argv = ["tune" if grid else "solve", "--instances", "no-such-dir", "--heatmap", "zero", "--max-iters", "1",
            f"{flag}={text}", *out]
    err = io.StringIO()
    try:
        value = getattr(build_parser().parse_args(argv), name)
    except UsageError:
        with contextlib.redirect_stderr(err):
            assert main(argv) == 2
        assert err.getvalue().startswith(f"error: argument {flag}: ") and err.getvalue().count("\n") == 1
        return
    parse = tuner.FIELD_PARSERS[name]
    if grid:
        assert value == getattr(tuner.SearchSpace(**{name: value}), name) == tuple(
            parse(tok) for tok in text.split(",") if tok.strip())
        assert [getattr(mcts.MctsParams(**{name: v}), name) for v in value] == list(value)
    else:
        assert value == getattr(mcts.MctsParams(**{name: value}), name) == parse(text)
        value = (value,)
    assert {type(v) for v in value} == {type(parse("1"))}
    with contextlib.redirect_stderr(err):
        assert main(argv) == 3  # parsed: the missing instance directory is the first error
    assert err.getvalue().startswith("I/O error: ")


@pytest.mark.parametrize("command", ["solve", "analyze-knn", "report"])
def test_out_directory_is_made_only_by_a_run_that_succeeds(instance_dir, tmp_path, command):
    """``--out`` in a directory not yet made: a run makes it just before it writes, and a run that
    fails (on a heatmap of another size, an instance of 2 cities, a length that is not a number) makes none."""
    hm = tmp_path / "hm.txt"
    hm.write_text("4 1\n0 1 0.5\n")
    bad_insts = tmp_path / "bad"
    bad_insts.mkdir()
    (bad_insts / "a.txt").write_text("n 2\n0 0\n1 1\n")
    results, bad_results = tmp_path / "res.csv", tmp_path / "bad.csv"
    for path, length in ((results, "1.5"), (bad_results, "abc")):
        path.write_text(",".join(RESULT_CSV_HEADER) + f"\nu0,c,zero,{length},1.0,50.0,0.1,0\n")
    solve = ("solve", "--instances", instance_dir, "--max-iters", 10, "--heatmap")
    good, bad = {"solve": ((*solve, "zero"), (*solve, f"file:{hm}")),
                 "analyze-knn": (("analyze-knn", "--instances", instance_dir), ("analyze-knn", "--instances", bad_insts)),
                 "report": (("report", results), ("report", bad_results))}[command]
    assert run(*bad, "--out", tmp_path / "failed" / "dir" / "out") == 4
    assert not (tmp_path / "failed").exists()
    assert run(*good, "--out", tmp_path / "made" / "dir" / "out") == 0
    assert (tmp_path / "made" / "dir" / "out").stat().st_size > 0


#: Bytes that no reader's format holds, and numbers that are not finite or pass the float range.
NOISE_TOKENS = [b"\xff", b"\r", b"", b"nan", b"1e400", b"-1", b"0", b"1", b"2", b"3", b"4", b"0.5"]
#: Each reader's tokens: a whole valid file of the 4-city instance, its lines, and its format's words.
FORMAT_TOKENS = {
    "instance": [b"n 4\n0 0\n1 0\n1 1\n0 1", b"n", b"0 0", b"NAME : fuzzed", b"DIMENSION : 3", b"EDGE_WEIGHT_TYPE : EUC_2D",
                 b"NODE_COORD_SECTION", b"EOF", b"1e19", b"1e308"],
    "tour": [b"4\n0 1 2 3", b"DIMENSION : 4", b"TOUR_SECTION", b"1 2 3 4 -1", b"EOF"],
    "heatmap": [b"4 2\n0 1 0.5\n1 0 0.5", b"4 2", b"0 1 0.5", b"2 3 1", b"1.5"],
    "prior": [b"rank,mass,cumulative\n1,0.5,0.5\n2,0.5,1", b"rank,mass,cumulative", b"1,0.5,0.5", b"rank", b"mass",
              b",", b"0.25", b'"'],
    "report": [",".join(RESULT_CSV_HEADER).encode() + b"\nu0,c,zero,1.5,1.0,50.0,0.1,0", b"u1,c,zero,2,1,100,0.5,0", b",",
               b"zero", b"inf", b'"'],
    "flags": [b"--alpha=0\n--max-depth=3", b"--alpha", b"--max-depth", b"--seed", b"--heatmap", b"zero", b"softdist:0.5",
              b"--use-heatmap", b"true", b"#", b"@x"],
}


@pytest.fixture(scope="module")
def reader_inputs(tmp_path_factory):
    """A 4-city instance and its tour, which stand beside the one fuzzed file of each reader."""
    root = tmp_path_factory.mktemp("readers")
    for name in ("insts", "refs", "fuzz-insts", "fuzz-refs"):
        (root / name).mkdir()
    (root / "insts" / "fuzzed.txt").write_text("n 4\n0 0\n1 0\n1 1\n0 1\n")
    (root / "refs" / "fuzzed.tour").write_text("4\n0 1 2 3\n")
    return root


@settings(max_examples=300, deadline=None)
@given(reader=st.sampled_from(sorted(FORMAT_TOKENS)), data=st.data())
def test_every_reader_rejects_a_bad_file_on_one_line_naming_it(reader_inputs, reader, data):
    """Whatever bytes a file holds, the command runs (exit 0), or fails on a usage or I/O error (exit 2
    or 3), or on a config error (exit 4) of one stderr line that names the file (or, once the file is
    read, its instance). It never raises, and no warning is issued."""
    root = reader_inputs
    token = st.one_of(st.sampled_from(FORMAT_TOKENS[reader]), st.sampled_from(NOISE_TOKENS))
    blob = data.draw(st.lists(st.lists(token, max_size=4).map(b" ".join), max_size=8).map(b"\n".join))
    path = root / {"instance": "fuzz-insts/fuzzed.txt", "tour": "fuzz-refs/fuzzed.tour"}.get(reader, f"{reader}.txt")
    path.write_bytes(blob)
    solve = ["solve", "--max-iters", 5, "--out", root / "out.csv", "--instances"]
    given_refs = [*solve, root / "insts", "--refs", root / "refs"]
    argv = {"instance": [*solve, root / "fuzz-insts", "--heatmap", "zero"],
            "tour": [*solve, root / "insts", "--refs", root / "fuzz-refs", "--heatmap", "zero"],
            "heatmap": [*given_refs, "--heatmap", f"file:{path}"],
            "prior": [*given_refs, "--heatmap", f"gtprior:{path}"],
            "report": ["report", path],
            "flags": [*given_refs, "--heatmap", "zero", f"@{path}"]}[reader]
    names = [str(path)]
    if reader == "instance":
        try:
            names.append(load_instance(path).id)
        except ValueError:
            pass
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")
        code = run(*argv)
    assert code in (0, 2, 3) or code == 4 and err.getvalue().count("\n") == 1 and any(
        name in err.getvalue() for name in names), (code, err.getvalue())


def child_env() -> dict[str, str]:
    """This environment with the package's source directory first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize("command, tour_flag, rest", [
    ("solve", "--refs", ("--heatmap", "zero", "--max-iters", 10, "--out", "x.csv")),
    ("tune", "--refs", ("--heatmap", "zero", "--max-iters", 10, "--out-dir", "x.csv")),
    ("analyze-knn", "--refs", ("--out", "x.csv")),
])
def test_missing_tour_file_is_one_error(instance_dir, tmp_path, capsys, command, tour_flag, rest):
    """``solve``, ``tune`` and ``analyze-knn`` read ``--refs`` tours through one loader:
    the last instance's missing tour is the same I/O error (exit 3) from each, and nothing is written."""
    tour_dir = tmp_path / "tours"
    tour_dir.mkdir()
    *present, missing = sorted(instance_dir.glob("*.txt"))
    for f in present:
        (tour_dir / f"{f.stem}.tour").write_text(write_tour(np.arange(10)))
    argv = [tmp_path / a if a == "x.csv" else a for a in rest]
    assert run(command, "--instances", instance_dir, tour_flag, tour_dir, *argv) == 3
    assert capsys.readouterr().err == f"I/O error: missing tour file: {tour_dir / missing.stem}.tour\n"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command, tour_flag, rest", [
    ("solve", "--refs", ("--heatmap", "zero", "--max-iters", 10, "--out", "x.csv")),
    ("tune", "--refs", ("--heatmap", "zero", "--max-iters", 10, "--out-dir", "x.csv")),
    ("tune", "--refs", ("--heatmap", "zero", "--max-iters", 10, "--jobs", 2, "--out-dir", "x.csv")),
    ("analyze-knn", "--refs", ("--out", "x.csv")),
], ids=["solve", "tune", "tune-jobs-2", "analyze-knn"])
def test_tour_of_another_size_names_the_file(instance_dir, tmp_path, capsys, command, tour_flag, rest):
    """A tour file that is a permutation of fewer cities than its instance is a config error on that file."""
    tour_dir = tmp_path / "tours"
    tour_dir.mkdir()
    files = sorted(instance_dir.glob("*.txt"))
    for f in files:
        (tour_dir / f"{f.stem}.tour").write_text(write_tour(np.arange(5)))
    argv = [tmp_path / a if a == "x.csv" else a for a in rest]
    assert run(command, "--instances", instance_dir, tour_flag, tour_dir, *argv) == 4
    tour = tour_dir / f"{files[0].stem}.tour"
    assert capsys.readouterr().err == f"config error: {tour}: tour has 5 cities, the instance has 10\n"
    assert not (tmp_path / "x.csv").exists()


def test_cli_import_leaves_the_process_pool_unloaded():
    """Only ``--jobs`` above 1 needs the process pool: importing the CLI loads no multiprocessing."""
    code = "import sys, tspmcts.cli; print([m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def env_without_blas_threads(**extra) -> dict[str, str]:
    """``child_env()`` with no ``OPENBLAS_NUM_THREADS`` unless given (importing the CLI here set it)."""
    env = child_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    return {**env, **extra}


def test_package_import_leaves_numpy_unloaded():
    """``import tspmcts`` loads its modules on first use, so the CLI can set numpy's threads before numpy loads."""
    code = "import sys, tspmcts; print('numpy' in sys.modules, tspmcts.generate_uniform(5, 0).n, 'numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env_without_blas_threads(), capture_output=True, text=True,
                          check=True)
    assert proc.stdout == "False 5 True\n"


#: Prints the BLAS thread setting after the CLI loaded numpy, and the process's thread count on Linux.
BLAS_THREADS = ("import os, sys, tspmcts.cli\n"
                "print(os.environ['OPENBLAS_NUM_THREADS'], "
                "len(os.listdir('/proc/self/task')) if sys.platform.startswith('linux') else 1)\n")


def test_cli_loads_numpy_with_one_blas_thread():
    proc = subprocess.run([sys.executable, "-c", BLAS_THREADS], env=env_without_blas_threads(), capture_output=True,
                          text=True, check=True)
    assert proc.stdout == "1 1\n"


def test_cli_keeps_a_blas_thread_count_the_caller_set():
    proc = subprocess.run([sys.executable, "-c", BLAS_THREADS], env=env_without_blas_threads(OPENBLAS_NUM_THREADS="2"),
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split()[0] == "2"


def test_readme_library_example_runs():
    """The README's library example, unchanged, in a fresh interpreter: the package's names
    and its submodules (``tm.heatmaps``, ``tm.tuner``) load on first use."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    code = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    assert len(lines) == 4 and float(lines[-1]) >= 0.0


def test_serial_solve_leaves_the_process_pool_unloaded(instance_dir, tmp_path):
    """``solve --jobs 1`` prepares and solves in the main process without loading the pool."""
    code = ("import sys\nfrom tspmcts.cli import main\n"
            f"code = main(['solve', '--instances', {str(instance_dir)!r}, '--heatmap', 'zero', '--max-iters', '50', "
            f"'--jobs', '1', '--out', {str(tmp_path / 'x.csv')!r}])\n"
            "print(code, [m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules])\n")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_solve_and_tune_leave_numpy_random_unloaded(tmp_path, instance_dir):
    """The solver draws from ``random.Random``: a ``solve`` and a ``tune`` run without loading
    ``numpy.random`` (about 5.6 MB of RSS and 15 ms of start-up)."""
    common = ("--instances", instance_dir, "--heatmap", "gtprior:tsp500", "--max-iters", 50)
    grid = ("--alpha-values", "0,1", "--beta-values", "10", "--max-depth-values", "10", "--mcn-values", "5,1000",
            "--param-h-values", "2", "--use-heatmap-values", "true")
    runs = [("solve", *common, "--out", tmp_path / "s.csv"), ("tune", *common, *grid, "--out-dir", tmp_path / "full")]
    code = ("import sys\nfrom tspmcts.cli import main\n"
            f"for argv in {[[str(a) for a in r] for r in runs]!r}:\n"
            "    print('exit', main(argv), 'numpy.random' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, check=True)
    assert [line for line in proc.stdout.splitlines() if line.startswith("exit")] == ["exit 0 False"] * 2
    assert (tmp_path / "full" / "shapley.csv").exists()


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
    (n, mcn) arrays. Measured about 78 MB max RSS on a 2-CPU host (88 MB
    with numpy.random loaded and Omega summed over dense rows, 106 MB
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
                                 "--refs", tmp_path / "tours", "--out", tmp_path / "knn.csv")
    assert code == 0
    assert max_rss <= 100 * 1024  # KiB on Linux


def test_analyze_knn_matches_the_rank_inverse(tmp_path):
    """At n=2000 the CSV equals one counted from the full rank table's n x n inverse."""
    n = 2000
    order = np.random.default_rng(1).permutation(n)
    inst = one_instance(tmp_path, n, order)
    assert run("analyze-knn", "--instances", tmp_path / "insts", "--refs", tmp_path / "tours",
               "--out", tmp_path / "knn.csv") == 0
    inverse = nearest_neighbor_ranks(distance_matrix(inst)).inverse
    succ = np.roll(order, -1)
    counts = np.bincount(np.concatenate((inverse[order, succ], inverse[succ, order])) - 1, minlength=n - 1)
    truncation = int(np.flatnonzero(counts)[-1]) + 1
    expected = PriorVector(masses=counts[:truncation] / counts.sum())
    write_distribution_csv(expected, tmp_path / "expected.csv")
    assert (tmp_path / "knn.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
