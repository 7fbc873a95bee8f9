import csv
import dataclasses
import itertools
import math

import numpy as np
import pytest

from tspmcts import cli, evalkit, heatmaps
from tspmcts.evalkit import Budget
from tspmcts.heatmaps import FileSource, ZeroSource, softdist_heatmap
from tspmcts.instances import distance_matrix, generate_uniform, write_native
from tspmcts.mcts import MctsParams
from tspmcts.tuner import (
    DEFAULT_PARAMS,
    PARAM_FIELDS,
    SearchSpace,
    boolean,
    config_key,
    evaluate_grid,
    grid_configs,
    shapley_for_all_configs,
    shapley_importance,
    tune,
    write_params_file,
)

from conftest import write_heatmap


class TestGridConfigs:
    def test_built_in_size(self):
        space = SearchSpace()
        assert space.size == 864
        assert len(grid_configs(space)) == 864

    def test_single_value_lists(self):
        space = SearchSpace(
            alpha=(1.0,), beta=(10.0,), max_depth=(10,),
            max_candidate_num=(1000,), param_h=(10,), use_heatmap=(True,),
        )
        configs = grid_configs(space)
        assert len(configs) == 1
        assert configs[0] == DEFAULT_PARAMS

    def test_lexicographic_order(self):
        configs = grid_configs(SearchSpace())
        assert config_key(configs[0]) == (0.0, 10.0, 10, 5, 2, True)
        # use_heatmap is the innermost field
        assert config_key(configs[1]) == (0.0, 10.0, 10, 5, 2, False)

    def test_default_is_member(self):
        keys = {config_key(c) for c in grid_configs(SearchSpace())}
        assert config_key(DEFAULT_PARAMS) in keys

    def test_empty_field_rejected(self):
        with pytest.raises(ValueError):
            SearchSpace(alpha=())


def stub_gap(params: MctsParams) -> float:
    return abs(params.alpha - 1.0) + abs(params.beta - 100.0) / 1000.0


def stub_gaps(space: SearchSpace, gap=stub_gap) -> list[float]:
    return [gap(c) for c in grid_configs(space)]


class TestTune:
    def test_stub_argmin(self):
        report = tune(SearchSpace(), stub_gaps(SearchSpace()))
        assert report.best_config.alpha == 1.0
        assert report.best_config.beta == 100.0
        assert report.best_gap <= min(report.mean_gaps)

    def test_best_beats_default(self):
        report = tune(SearchSpace(), stub_gaps(SearchSpace()))
        assert report.default_gap is not None
        assert report.best_gap <= report.default_gap <= max(report.mean_gaps)

    def test_deterministic(self):
        a = tune(SearchSpace(), stub_gaps(SearchSpace()))
        b = tune(SearchSpace(), stub_gaps(SearchSpace()))
        assert a.mean_gaps == b.mean_gaps
        assert config_key(a.best_config) == config_key(b.best_config)

    def test_tie_breaks_to_grid_order(self):
        report = tune(SearchSpace(), stub_gaps(SearchSpace(), lambda p: 1.0))
        assert config_key(report.best_config) == (0.0, 10.0, 10, 5, 2, True)

    def test_csv_schema(self, tmp_path):
        space = SearchSpace(
            alpha=(0.0, 1.0), beta=(10.0,), max_depth=(10,),
            max_candidate_num=(1000,), param_h=(10,), use_heatmap=(True,),
        )
        report = tune(space, stub_gaps(space))
        path = tmp_path / "tuning.csv"
        report.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "config_id,alpha,beta,max_depth,mcn,param_h,use_heatmap,mean_gap"
        assert len(lines) == 3


class TestShapley:
    def test_constant_game_all_zero(self):
        space = SearchSpace()
        gaps = [2.5] * space.size
        phi = shapley_importance(space, gaps, DEFAULT_PARAMS)
        for value in phi.values():
            assert abs(value) < 1e-9

    def test_additive_single_feature_closed_form(self):
        space = SearchSpace()
        configs = grid_configs(space)
        g = {0.0: 3.0, 1.0: 1.0, 2.0: 2.0}
        gaps = [g[c.alpha] for c in configs]
        for cfg in (configs[0], configs[500], configs[-1]):
            phi = shapley_importance(space, gaps, cfg)
            expected_alpha = g[cfg.alpha] - np.mean(list(g.values()))
            assert phi["alpha"] == pytest.approx(expected_alpha, abs=1e-9)
            for name in PARAM_FIELDS:
                if name != "alpha":
                    assert abs(phi[name]) < 1e-9

    def test_two_feature_hand_computation(self):
        # Only alpha and use_heatmap vary; the rest are singletons so the
        # game reduces to two players and can be checked by hand.
        space = SearchSpace(
            alpha=(0.0, 1.0), beta=(10.0,), max_depth=(10,),
            max_candidate_num=(1000,), param_h=(10,), use_heatmap=(True, False),
        )
        configs = grid_configs(space)
        table = {(0.0, True): 4.0, (0.0, False): 7.0, (1.0, True): 1.0, (1.0, False): 2.0}
        gaps = [table[(c.alpha, c.use_heatmap)] for c in configs]
        target = configs[0]  # (alpha=0, use_heatmap=True)
        v_empty = np.mean(list(table.values()))  # 3.5
        v_a = np.mean([table[(0.0, True)], table[(0.0, False)]])  # 5.5
        v_u = np.mean([table[(0.0, True)], table[(1.0, True)]])  # 2.5
        v_au = table[(0.0, True)]  # 4.0
        phi_a = 0.5 * (v_a - v_empty) + 0.5 * (v_au - v_u)
        phi_u = 0.5 * (v_u - v_empty) + 0.5 * (v_au - v_a)
        phi = shapley_importance(space, gaps, target)
        assert phi["alpha"] == pytest.approx(phi_a, abs=1e-12)
        assert phi["use_heatmap"] == pytest.approx(phi_u, abs=1e-12)
        assert sum(phi.values()) == pytest.approx(v_au - v_empty, abs=1e-12)

    def test_efficiency_on_random_game(self):
        space = SearchSpace(
            alpha=(0.0, 1.0, 2.0), beta=(10.0, 100.0), max_depth=(10, 50),
            max_candidate_num=(5, 20), param_h=(2, 5), use_heatmap=(True, False),
        )
        configs = grid_configs(space)
        rng = np.random.default_rng(0)
        gaps = rng.random(len(configs)).tolist()
        grand_mean = float(np.mean(gaps))
        for idx in (0, 17, len(configs) - 1):
            phi = shapley_importance(space, gaps, configs[idx])
            assert sum(phi.values()) == pytest.approx(gaps[idx] - grand_mean, abs=1e-9)

    def test_symmetry(self):
        # A game symmetric in (alpha, beta) over matched two-value ranges.
        space = SearchSpace(
            alpha=(0.0, 1.0), beta=(0.5, 1.5), max_depth=(10,),
            max_candidate_num=(1000,), param_h=(10,), use_heatmap=(True,),
        )
        configs = grid_configs(space)
        gaps = [float(c.alpha > 0.5) + float(c.beta > 1.0) for c in configs]
        both_high = next(c for c in configs if c.alpha == 1.0 and c.beta == 1.5)
        phi = shapley_importance(space, gaps, both_high)
        assert phi["alpha"] == pytest.approx(phi["beta"], abs=1e-12)

    def test_incomplete_grid_rejected(self):
        space = SearchSpace()
        with pytest.raises(ValueError, match=f"^grid has {space.size} configs, got 10 gaps$"):
            shapley_importance(space, [1.0] * 10, DEFAULT_PARAMS)

    def test_all_config_export_consistent(self):
        space = SearchSpace(
            alpha=(0.0, 1.0), beta=(10.0, 100.0), max_depth=(10,),
            max_candidate_num=(5,), param_h=(2,), use_heatmap=(True, False),
        )
        configs = grid_configs(space)
        rng = np.random.default_rng(5)
        gaps = rng.random(len(configs)).tolist()
        all_phi = shapley_for_all_configs(space, gaps)
        for cfg, phi in zip(configs, all_phi):
            single = shapley_importance(space, gaps, cfg)
            assert phi == pytest.approx(single)



def reference_attributions(space: SearchSpace, gaps) -> list[dict[str, float]]:
    """Test-only reference: per-coalition dict tables (projection onto S -> mean gap) and a
    per-config sum over coalitions, the group-by the array pass must reproduce bit for bit."""
    keys = [config_key(c) for c in grid_configs(space)]
    gaps_arr = np.asarray(gaps, dtype=np.float64)
    tables = []
    for mask in range(64):
        groups = {}
        for row, key in enumerate(keys):
            groups.setdefault(tuple(key[f] for f in range(6) if mask >> f & 1), []).append(row)
        tables.append({proj: float(gaps_arr[rows].mean()) for proj, rows in groups.items()})
    fact = [math.factorial(i) for i in range(7)]
    result = []
    for key in keys:
        values = [tables[mask][tuple(key[f] for f in range(6) if mask >> f & 1)] for mask in range(64)]
        phi = {}
        for f, name in enumerate(PARAM_FIELDS):
            total = 0.0
            for mask in range(64):
                if not mask >> f & 1:
                    s = bin(mask).count("1")
                    total += fact[s] * fact[6 - s - 1] / fact[6] * (values[mask | 1 << f] - values[mask])
            phi[name] = total
        result.append(phi)
    return result


def reference_game(space: SearchSpace, kind: str) -> list[float]:
    rng = np.random.default_rng(11)
    if kind == "random":
        return (rng.random(space.size) * 40.0).tolist()
    if kind == "tied":
        return rng.choice([0.1, 0.7, 2.5], size=space.size).tolist()
    if kind == "constant":
        return [0.1] * space.size
    # dummy: the last field with more than one value has no effect on the gap
    dummy = max(f for f, size in enumerate(space.shape) if size > 1)
    shape = tuple(1 if f == dummy else size for f, size in enumerate(space.shape))
    return np.broadcast_to(rng.random(shape), space.shape).ravel().tolist()


@pytest.mark.parametrize("kind", ["random", "tied", "constant", "dummy"])
@pytest.mark.parametrize("space", [
    SearchSpace(),
    SearchSpace(alpha=(0.0, 1.0, 2.0), beta=(10.0, 100.0), max_depth=(10, 50),
                max_candidate_num=(5, 20), param_h=(2, 5), use_heatmap=(True, False)),
    SearchSpace(alpha=(0.0, 1.0), beta=(10.0, 100.0), max_depth=(10,),
                max_candidate_num=(5,), param_h=(2,), use_heatmap=(True, False)),
    SearchSpace(alpha=(1.0,), beta=(10.0, 100.0, 150.0), max_depth=(10,),
                max_candidate_num=(5, 20, 50, 1000), param_h=(10,), use_heatmap=(False, True)),
], ids=["full", "192", "8", "24"])
def test_attributions_match_dict_table_reference(space, kind):
    gaps = reference_game(space, kind)
    expected = [[float.hex(phi[name]) for name in PARAM_FIELDS] for phi in reference_attributions(space, gaps)]
    got = [[float.hex(phi[name]) for name in PARAM_FIELDS] for phi in shapley_for_all_configs(space, gaps)]
    assert got == expected
    configs = grid_configs(space)
    for idx in (0, len(configs) // 2, len(configs) - 1):
        single = shapley_importance(space, gaps, configs[idx])
        assert [float.hex(single[name]) for name in PARAM_FIELDS] == expected[idx]


#: 8 configs; with use_heatmap off the gaps depend on the search alone.
SMALL_GRID = SearchSpace(
    alpha=(0.0, 1.0), beta=(10.0, 100.0), max_depth=(10,),
    max_candidate_num=(5, 1000), param_h=(2,), use_heatmap=(False,),
)


def counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestBenchmarkEvaluator:
    @pytest.fixture(scope="class")
    def pair(self):
        return [generate_uniform(12, 700 + i) for i in range(2)]

    def test_each_instance_prepared_once(self, pair, monkeypatch):
        distances = counting(monkeypatch, evalkit, "distance_matrix")
        oracle = counting(monkeypatch, evalkit, "exact_solve")
        rpt = tune(SMALL_GRID, evaluate_grid(SMALL_GRID, [(inst, None, ZeroSource()) for inst in pair],
                                             Budget("iters", 50), seed=3))
        assert len(rpt.mean_gaps) == 8
        assert len(distances) == 2
        assert len(oracle) == 2

    def test_file_heatmap_loaded_once_per_instance(self, pair, tmp_path, monkeypatch):
        path = tmp_path / "hm.txt"
        write_heatmap(softdist_heatmap(distance_matrix(pair[0]), 0.1, 5), path)
        loads = counting(monkeypatch, heatmaps, "load_heatmap")
        evaluate_grid(dataclasses.replace(SMALL_GRID, use_heatmap=(True,)),
                      [(inst, None, FileSource(str(path))) for inst in pair], Budget("iters", 50), seed=3)
        assert len(loads) == 2

    def test_config_ids_must_tell_configs_apart(self, pair):
        """Rows are told apart by config id: two alphas that print alike are rejected, not merged."""
        space = dataclasses.replace(SMALL_GRID, alpha=(0.1234561, 0.1234562))
        with pytest.raises(ValueError, match="config ids"):
            evaluate_grid(space, [(inst, None, ZeroSource()) for inst in pair], Budget("iters", 10))

    def test_golden_mean_gaps(self, pair):
        """Pinned bit for bit; preparing once must not change any result."""
        rpt = tune(SMALL_GRID, evaluate_grid(SMALL_GRID, [(inst, None, ZeroSource()) for inst in pair],
                                             Budget("iters", 200), seed=3))
        assert [float.hex(g) for g in rpt.mean_gaps] == [
            "0x1.fb5c0fedc6fb0p-2", "0x1.2ce008668fe95p+1", "0x1.fb5c0fedc6fb0p-2", "0x1.2ce008668fe95p+1",
            "0x1.576277bf5a16cp+0", "0x1.b89f9ca551b8fp+3", "0x0.0p+0", "0x1.0cbc09b678080p+4",
        ]


def solve_with(tmp_path, *argv) -> int:
    """``tspmcts solve`` through ``cli.main`` on one 8-city instance, into ``res.csv``, with ``argv`` appended."""
    insts = tmp_path / "insts"
    insts.mkdir(exist_ok=True)
    (insts / "a.txt").write_text(write_native(generate_uniform(8, 1)))
    return cli.main(["solve", "--instances", str(insts), "--heatmap", "zero", "--max-iters", "20",
                     "--out", str(tmp_path / "res.csv"), *map(str, argv)])


def test_params_file_round_trip(tmp_path, monkeypatch):
    """``write_params_file`` writes ``solve``'s six flags, and ``solve @FILE`` reads back the same config."""
    params = MctsParams(alpha=0.1 + 0.2, beta=150.0, max_depth=50, max_candidate_num=20, param_h=5, use_heatmap=False)
    path = tmp_path / "config.txt"
    write_params_file(params, path)
    assert path.read_text() == ("--alpha=0.30000000000000004\n--beta=150.0\n--max-depth=50\n--max-candidate-num=20\n"
                                "--param-h=5\n--use-heatmap=False\n")
    solved = []
    run_benchmark = cli.run_benchmark
    monkeypatch.setattr(cli, "run_benchmark",
                        lambda tasks, configs, *a, **kw: solved.append(configs) or run_benchmark(tasks, configs, *a, **kw))
    assert solve_with(tmp_path, f"@{path}") == 0
    assert solved == [{"a0.3-b150-d50-c20-h5-u0": params}]
    assert [row["config"] for row in csv.DictReader(open(tmp_path / "res.csv"))] == ["a0.3-b150-d50-c20-h5-u0"]


def test_params_file_rejects_time_limit_factor(tmp_path, capsys):
    """The budget comes from --time-factor or --max-iters: an old ``key=value`` file, whose
    ``time_limit_factor`` line older files carry, and a ``--time-limit-factor`` flag are usage errors."""
    path = tmp_path / "config.txt"
    for text, unrecognized in [("alpha=2.0\ntime_limit_factor=0.05\n", "alpha=2.0 time_limit_factor=0.05"),
                               ("--alpha=2.0\n--time-limit-factor=0.05\n", "--time-limit-factor=0.05")]:
        path.write_text(text)
        assert solve_with(tmp_path, f"@{path}") == 2
        assert capsys.readouterr().err == f"error: unrecognized arguments: {unrecognized}\n"
    assert not (tmp_path / "res.csv").exists()


def test_params_file_rejects_unknown_keys(tmp_path, capsys):
    path = tmp_path / "config.txt"
    path.write_text("--gamma=3\n")
    assert solve_with(tmp_path, f"@{path}") == 2
    assert capsys.readouterr().err == "error: unrecognized arguments: --gamma=3\n"


@pytest.mark.parametrize("text, value", [
    ("1", True), ("true", True), ("Yes", True), (" TRUE ", True),
    ("0", False), ("false", False), ("No", False), ("FALSE", False),
])
def test_boolean_vocabulary(text, value):
    assert boolean(text) is value


@pytest.mark.parametrize("text", ["", "ture", "tru", "2", "on", "off", "y", "n"])
def test_boolean_rejects_other_text(text):
    with pytest.raises(ValueError, match="not a boolean"):
        boolean(text)
