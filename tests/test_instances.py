import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tspmcts.evalkit import prepare
from tspmcts.heatmaps import BUILTIN_PRIORS, PriorSource
from tspmcts.instances import (
    BLOCK_ELEMS,
    Instance,
    Metric,
    ParseError,
    UnsupportedMetricError,
    distance_matrix,
    generate_structured,
    generate_uniform,
    _grid_ranks,
    nearest_in_rows,
    nearest_neighbor_ranks,
    parse_native,
    parse_tsplib,
    write_native,
)
from tspmcts.mcts import Budget, MctsParams, solve
from tspmcts.tours import tour_length

from conftest import dm_and_ranks, tsplib_text


class TestGenerateUniform:
    def test_points_in_unit_square(self):
        inst = generate_uniform(3, 0)
        assert inst.n == 3
        assert (inst.points >= 0).all() and (inst.points <= 1).all()

    def test_deterministic(self):
        a = generate_uniform(500, 7)
        b = generate_uniform(500, 7)
        assert np.array_equal(a.points, b.points)

    def test_law_of_large_numbers(self):
        inst = generate_uniform(1000, 1)
        assert abs(inst.points[:, 0].mean() - 0.5) < 0.05
        assert abs(inst.points[:, 1].mean() - 0.5) < 0.05

    def test_too_small(self):
        for n in (-1, 0, 2):
            with pytest.raises(ValueError):
                generate_uniform(n, 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_instance_rejects_non_finite_points(bad):
    pts = generate_uniform(5, 0).points.copy()
    pts[2, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        Instance(id="bad", points=pts)


class TestGenerateStructured:
    def test_cluster_points_near_centers(self):
        spread = 0.05
        inst = generate_structured(100, 0, "cluster", n_clusters=5, spread=spread)
        # Recompute the centers the generator drew, then check proximity.
        rng = np.random.default_rng(0)
        centers = rng.random((5, 2))
        nearest = np.min(
            np.linalg.norm(inst.points[:, None, :] - centers[None, :, :], axis=2), axis=1
        )
        assert (nearest <= 3 * spread).mean() >= 0.60

    def test_explosion_clears_exclusion_zone(self):
        radius = 0.2
        inst = generate_structured(100, 0, "explosion", center=(0.5, 0.5), radius=radius)
        dist = np.linalg.norm(inst.points - np.array([0.5, 0.5]), axis=1)
        assert (dist >= radius - 1e-12).all()

    def test_implosion_contracts(self):
        radius = 0.3
        inst = generate_structured(200, 3, "implosion", center=(0.5, 0.5), radius=radius)
        plain = generate_uniform(200, 3)
        # Points outside the radius are untouched; inside ones move halfway in.
        dist = np.linalg.norm(plain.points - np.array([0.5, 0.5]), axis=1)
        outside = dist >= radius
        assert np.array_equal(inst.points[outside], plain.points[outside])
        assert (np.linalg.norm(inst.points[~outside] - np.array([0.5, 0.5]), axis=1) < radius).all()

    @pytest.mark.parametrize("kind", ["cluster", "explosion", "implosion"])
    def test_deterministic(self, kind):
        a = generate_structured(50, 11, kind)
        b = generate_structured(50, 11, kind)
        assert np.array_equal(a.points, b.points)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            generate_structured(10, 0, "cluster", spread=0.0)
        for spread in (math.inf, math.nan):  # inf noise would clip every city to a corner of the square
            with pytest.raises(ValueError, match="spread"):
                generate_structured(10, 0, "cluster", spread=spread)
        with pytest.raises(ValueError):
            generate_structured(10, 0, "explosion", radius=0.9)
        with pytest.raises(ValueError):
            generate_structured(10, 0, "implosion", center=(1.5, 0.5))
        with pytest.raises(ValueError):
            generate_structured(10, 0, "spiral")

    @pytest.mark.parametrize("kind", ["cluster", "explosion", "implosion"])
    def test_too_small(self, kind):
        for n in (-1, 0, 2):
            with pytest.raises(ValueError):
                generate_structured(n, 0, kind)

    @pytest.mark.parametrize("kind", ["cluster", "explosion", "implosion"])
    def test_clipped_to_unit_square(self, kind):
        inst = generate_structured(300, 5, kind)
        assert (inst.points >= 0).all() and (inst.points <= 1).all()


class TestParseTsplib:
    def test_eil51(self, eil51_text):
        inst = parse_tsplib(eil51_text)
        assert inst.n == 51
        assert inst.id == "eil51"

    def test_metric_is_nint(self, eil51_text):
        """TSPLIB's EUC_2D is the nearest-integer metric, so a parsed file carries it."""
        assert parse_tsplib(eil51_text).metric is Metric.EUC2D_INT

    def test_explicit_weights_rejected(self):
        text = "NAME : x\nDIMENSION : 3\nEDGE_WEIGHT_TYPE : EXPLICIT\nNODE_COORD_SECTION\n1 0 0\n2 0 1\n3 1 0\nEOF\n"
        with pytest.raises(UnsupportedMetricError):
            parse_tsplib(text)

    def test_minimal_round_trip(self):
        text = "NAME : tiny\nTYPE : TSP\nDIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n1 0 0\n2 0.5 1\n3 1 0\nEOF\n"
        inst = parse_tsplib(text)
        again = parse_tsplib(tsplib_text(inst))
        assert again.id == inst.id
        assert np.array_equal(again.points, inst.points)

    def test_coordinates_preserved_verbatim(self):
        text = "NAME : big\nDIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n1 37 52\n2 49 49\n3 52 64\nEOF\n"
        inst = parse_tsplib(text)
        assert np.array_equal(inst.points, np.array([[37.0, 52.0], [49.0, 49.0], [52.0, 64.0]]))

    def test_missing_sections(self):
        with pytest.raises(ParseError, match="NODE_COORD_SECTION"):
            parse_tsplib("NAME : x\nDIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\n")
        with pytest.raises(ParseError, match="DIMENSION"):
            parse_tsplib("NAME : x\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n1 0 0\nEOF\n")

    def test_non_numeric_coordinate(self):
        text = "DIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n1 0 0\n2 x 1\n3 1 0\nEOF\n"
        with pytest.raises(ParseError, match="^bad coordinate line: '2 x 1'$"):
            parse_tsplib(text)

    def test_coordinate_count_mismatch(self):
        text = "DIMENSION : 4\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n1 0 0\n2 0 1\n3 1 0\nEOF\n"
        with pytest.raises(ParseError, match="coordinate lines"):
            parse_tsplib(text)


class TestNativeFormat:
    def test_round_trip(self):
        inst = generate_uniform(20, 9)
        again = parse_native(write_native(inst))
        assert np.array_equal(again.points, inst.points)

    def test_metric_is_real(self):
        assert parse_native("n 3\n0 0\n0 1\n1 0\n").metric is Metric.EUC2D_REAL

    def test_nint_instance_is_not_written(self, eil51_text):
        """The native format has no metric field: a TSPLIB instance written to it would read back as real."""
        with pytest.raises(ValueError, match="^native files hold real-metric points; eil51 is EUC2D_INT$"):
            write_native(parse_tsplib(eil51_text))

    def test_bad_header(self):
        for text in ("3\n0 0\n0 1\n1 0\n", "n 3 junk\n0 0\n1 1\n0 1\n"):
            with pytest.raises(ParseError):
                parse_native(text)


class TestDistanceMatrix:
    def test_unit_square_geometry(self, unit_square):
        dm = distance_matrix(Instance(unit_square.id, unit_square.points, Metric.EUC2D_REAL))
        assert dm.pair(0, 1) == 1.0 and dm.pair(1, 2) == 1.0 and dm.pair(2, 3) == 1.0 and dm.pair(3, 0) == 1.0
        assert dm.pair(0, 2) == pytest.approx(math.sqrt(2), abs=1e-15)

    def test_symmetry_and_zero_diagonal(self):
        inst = generate_uniform(40, 2)
        dm = distance_matrix(inst)
        assert np.array_equal(dm.entries, dm.entries.T)
        assert (np.diag(dm.entries) == 0).all()

    def test_int_metric_rounds_to_nearest(self):
        inst = Instance(id="i", points=np.array([[0.0, 0.0], [0.0, 1.4], [0.0, 3.0]]), metric=Metric.EUC2D_INT)
        dm = distance_matrix(inst)
        assert dm.pair(0, 1) == 1  # 1.4 rounds down
        assert dm.pair(1, 2) == 2  # 1.6 rounds up
        assert dm.entries.dtype == np.int64

    def test_eil51_optimal_tour_length(self, eil51_text, eil51_tour_text):
        from tspmcts.tours import parse_tour

        inst = parse_tsplib(eil51_text)
        dm = distance_matrix(inst)
        order = parse_tour(eil51_tour_text)
        assert tour_length(order, dm) == 426


class TestNearestNeighborRanks:
    def test_collinear_tie_break(self):
        inst = Instance(id="line", points=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
        _, ranks = dm_and_ranks(inst)
        # Middle point is equidistant from both ends: index order breaks the tie.
        assert list(ranks.rows[1]) == [0, 2]

    def test_inverse_matches_row_positions(self):
        inst = generate_uniform(25, 3)
        _, ranks = dm_and_ranks(inst)
        for i in range(inst.n):
            assert ranks.inverse[i, i] == 0
            for k, j in enumerate(ranks.rows[i], start=1):
                assert ranks.inverse[i, j] == k

    def test_matches_brute_force_sort(self):
        inst = generate_uniform(10, 8)
        dm, ranks = dm_and_ranks(inst)
        for i in range(inst.n):
            expected = sorted((j for j in range(inst.n) if j != i), key=lambda j: (dm.pair(i, j), j))
            assert list(ranks.rows[i]) == expected

    def test_rows_are_permutations_with_sorted_distances(self):
        inst = generate_uniform(30, 4)
        dm, ranks = dm_and_ranks(inst)
        for i in range(inst.n):
            row = list(ranks.rows[i])
            assert sorted(row) == [j for j in range(inst.n) if j != i]
            dists = [dm.pair(i, j) for j in row]
            assert dists == sorted(dists)


def dense_distances(points: np.ndarray, metric: Metric) -> np.ndarray:
    """Whole-matrix reference for distance_matrix."""
    diff = points[:, None, :] - points[None, :, :]
    d = np.sqrt((diff ** 2).sum(axis=2))
    return np.floor(d + 0.5).astype(np.int64) if metric is Metric.EUC2D_INT else d


def dense_ranks(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row reference for nearest_neighbor_ranks: (rows, inverse)."""
    n = entries.shape[0]
    order = np.argsort(entries, axis=1, kind="stable").astype(np.int32)
    rows = np.empty((n, n - 1), dtype=np.int32)
    for i in range(n):
        rows[i] = order[i][order[i] != i]
    inverse = np.zeros((n, n), dtype=np.int32)
    for i in range(n):
        inverse[i, rows[i]] = np.arange(1, n, dtype=np.int32)
    return rows, inverse


def block_test_points(n: int, kind: str) -> np.ndarray:
    rng = np.random.default_rng(n)
    if kind == "random":
        return rng.random((n, 2)) * 1000
    # A coarse integer grid: repeated cities and many tied distances.
    return np.floor(rng.random((n, 2)) * 6)


BLOCK_SIZES = [3, 255, 256, 257, 513]


class TestBlockedBuild:
    """The row-blocked tables are byte-identical to whole-matrix references."""

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    @pytest.mark.parametrize("metric", list(Metric))
    @pytest.mark.parametrize("points", ["random", "duplicates"])
    def test_matches_dense_reference(self, n, metric, points):
        inst = Instance(id="t", points=block_test_points(n, points), metric=metric)
        dm = distance_matrix(inst)
        expected = dense_distances(inst.points, metric)
        assert dm.entries.dtype == expected.dtype
        assert dm.entries.tobytes() == expected.tobytes()
        ranks = nearest_neighbor_ranks(dm)
        rows, inverse = dense_ranks(expected)
        assert ranks.rows.dtype == np.int32
        assert ranks.rows.tobytes() == rows.tobytes()
        assert ranks.inverse.tobytes() == inverse.tobytes()
        # A truncated table is the full table's prefix, ties at the k-th place included.
        for k in (1, 2, 7, 30, n - 2):
            narrow = nearest_neighbor_ranks(dm, k)
            width = min(k, n - 1)
            assert narrow.rows.dtype == np.int32 and narrow.width == width
            assert narrow.rows.tobytes() == np.ascontiguousarray(rows[:, :width]).tobytes()

    @pytest.mark.parametrize("metric", list(Metric))
    def test_readers_match_dense_reference_without_building_it(self, metric):
        n = 263
        inst = Instance(id="t", points=block_test_points(n, "random") / 7, metric=metric)
        dm = distance_matrix(inst)
        expected = dense_distances(inst.points, metric)
        for lo, hi in ((0, 1), (3, 258), (n - 1, n)):
            block = dm.rows(lo, hi)
            assert block.dtype == expected.dtype and block.tobytes() == expected[lo:hi].tobytes()
        i, j = np.random.default_rng(0).integers(n, size=(2, 500))
        edges = dm.edges(i, j)
        assert edges.dtype == expected.dtype and edges.tobytes() == expected[i, j].tobytes()
        pairs = [dm.pair(a, b) for a, b in zip(i.tolist(), j.tolist())]
        assert [p.hex() for p in pairs] == [float(v).hex() for v in expected[i, j]]
        assert "entries" not in dm.__dict__
        assert dm.entries.tobytes() == expected.tobytes()

    def test_width_must_be_positive(self):
        with pytest.raises(ValueError, match="width"):
            nearest_neighbor_ranks(distance_matrix(generate_uniform(5, 0)), 0)

    def test_inverse_built_only_on_demand(self):
        prep = prepare(generate_uniform(40, 5), np.arange(40), PriorSource(BUILTIN_PRIORS["tsp500"]))
        solve(prep.inst, prep.dm, prep.ranks, prep.heatmap, MctsParams(), 0, Budget("iters", 200))
        assert "inverse" not in prep.ranks.__dict__
        for i in range(prep.inst.n):
            for k, j in enumerate(prep.ranks.rows[i], start=1):
                assert prep.ranks.inverse[i, j] == k
        assert "inverse" in prep.ranks.__dict__

    def test_build_memory_stays_near_output_size(self):
        inst = generate_uniform(1500, 0)
        tracemalloc.start()
        try:
            dm = distance_matrix(inst)
            ranks = nearest_neighbor_ranks(dm)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * (dm.entries.nbytes + ranks.rows.nbytes)


@st.composite
def rank_inputs(draw):
    """(points, k): point sets that strain a grid search, with the widths ``prepare`` and the tests use."""
    n = draw(st.integers(3, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", "grid", "equal", "collinear", "cluster"]))
    if kind == "uniform":
        points = rng.random((n, 2))
    elif kind == "grid":  # integer points: duplicate cities and tied distances
        points = np.floor(rng.random((n, 2)) * draw(st.integers(1, 20)))
    elif kind == "equal":
        points = np.full((n, 2), 0.25)
    elif kind == "collinear":
        points = np.outer(rng.random(n), draw(st.sampled_from([(1.0, 0.0), (0.0, 1.0), (1.0, 0.5)])))
    else:  # five clusters of spread 1e-6
        points = rng.random((5, 2))[np.arange(n) % 5] + rng.normal(0.0, 1e-6, size=(n, 2))
    return points, min(draw(st.sampled_from([1, 2, 7, 30, n - 2])), n - 1)


@settings(max_examples=80, deadline=None)
@given(rank_inputs(), st.sampled_from(list(Metric)))
def test_grid_built_table_equals_full_rows(case, metric):
    """A truncated table, grid-certified rows and fallback rows alike, is the full table's prefix byte for byte."""
    points, k = case
    dm = distance_matrix(Instance(id="t", points=points, metric=metric))
    full = nearest_neighbor_ranks(dm).rows
    assert nearest_neighbor_ranks(dm, k).rows.tobytes() == np.ascontiguousarray(full[:, :k]).tobytes()


@pytest.mark.parametrize("metric", list(Metric))
def test_rows_the_grid_cannot_certify_fall_back(metric):
    """Uniform n=600 at width 30: a few rows fail the grid's bound and are ranked against all cities."""
    n, k = 600, 30
    dm = distance_matrix(Instance(id="t", points=generate_uniform(n, 0).points * 1000, metric=metric))
    scratch = np.full((n, k), -1, dtype=np.int32)
    fallback = _grid_ranks(dm, k, scratch)
    assert 0 < len(fallback) < n // 10
    full = nearest_neighbor_ranks(dm).rows[:, :k]
    certified = np.setdiff1d(np.arange(n), fallback)
    assert np.array_equal(scratch[certified], full[certified])
    assert np.array_equal(nearest_neighbor_ranks(dm, k).rows, full)


def test_truncated_build_memory_on_few_distinct_points():
    """n=5000 cities on 3 distinct points: every distance ties, yet a width-30 table
    costs its output plus a bounded number of ``BLOCK_ELEMS`` float64 temporaries
    (about 8.7 measured: ties fill each block's sort)."""
    dm = distance_matrix(Instance(id="t", points=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])[np.arange(5000) % 3]))
    tracemalloc.start()
    try:
        ranks = nearest_neighbor_ranks(dm, 30)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= ranks.rows.nbytes + 12 * 8 * BLOCK_ELEMS


def test_nearest_in_rows_frees_its_partition_early():
    """On a tie-heavy block (n=5000 cities on 3 points) the call holds its input plus about
    two blocks (measured 2.02): the k-th column is copied out of the partition, whose full
    (rows, n) copy is freed before the tied entries are sorted (a view of it holds 3.02 blocks)."""
    n = 5000
    dm = distance_matrix(Instance(id="t", points=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])[np.arange(n) % 3]))
    own = np.arange(BLOCK_ELEMS // n)
    dist = dm.edges(own[:, None], np.arange(n))
    tracemalloc.start()
    try:
        near = nearest_in_rows(dist, own, 30)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert near.shape == (len(own), 30)
    assert peak <= 2.5 * dist.nbytes


@st.composite
def full_rows(draw):
    """(dist, own): rows of distances from cities ``own`` (any index, repeats allowed) to all n,
    on points whose distances never tie, tie now and then, tie often, or tie almost everywhere."""
    n = draw(st.integers(3, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", "scaled", "grid", "three", "duplicates"]))
    if kind == "uniform":
        points = rng.random((n, 2)) * 1000
    elif kind == "scaled":  # integer coordinates up to 10^2..10^5, as in TSPLIB files: few integer ties
        points = np.floor(rng.random((n, 2)) * 10.0 ** draw(st.integers(2, 5)))
    elif kind == "grid":  # a small integer grid
        points = np.floor(rng.random((n, 2)) * draw(st.integers(1, 6)))
    elif kind == "three":  # every city on at most 3 points
        points = rng.random((3, 2))[rng.integers(0, 3, n)]
    else:  # uniform points, some of them repeated
        points = rng.random((n, 2))
        points[rng.integers(0, n, n // 2)] = points[rng.integers(0, n, n // 2)]
    own = rng.integers(0, n, draw(st.integers(1, 2 * n)))
    dm = distance_matrix(Instance(id="t", points=points, metric=draw(st.sampled_from(list(Metric)))))
    return dm.edges(own[:, None], np.arange(n)), own


@settings(max_examples=150, deadline=None)
@given(full_rows())
def test_full_rows_are_a_stable_sort(case):
    """Full width sorts rows unstably and re-sorts the runs of equal distances in rows with a
    tie: every row is still ordered by (distance, index), as a stable sort orders it."""
    dist, own = case
    expected = dist.copy()
    expected[np.arange(len(own)), own] = -1
    expected = np.argsort(expected, axis=1, kind="stable")[:, 1:]
    assert np.array_equal(nearest_in_rows(dist, own, dist.shape[1] - 1), expected)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=3, max_value=60), seed=st.integers(min_value=0, max_value=10**6))
def test_generation_is_pure_and_bounded(n, seed):
    a = generate_uniform(n, seed)
    b = generate_uniform(n, seed)
    assert np.array_equal(a.points, b.points)
    assert (a.points >= 0).all() and (a.points <= 1).all()
    dm = distance_matrix(a)
    assert np.array_equal(dm.entries, dm.entries.T)
    assert (np.diag(dm.entries) == 0).all()
