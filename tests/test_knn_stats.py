import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tspmcts.heatmaps import BUILTIN_PRIORS
from tspmcts.instances import Instance, Metric, distance_matrix, generate_uniform
from tspmcts.knn_stats import (
    EmpiricalDistribution,
    aggregate,
    cumulative_mass,
    per_instance_distribution,
    rank_counts,
    write_distribution_csv,
)
from tspmcts.tours import InvalidTourError, exact_solve, make_tour

from conftest import circle_instance, dm_and_ranks


def builtin_as_distribution(name):
    return EmpiricalDistribution(masses=BUILTIN_PRIORS[name].masses, sample_count=1)


class TestPerInstanceDistribution:
    def test_square_mass_within_two_ranks(self, unit_square):
        dm = distance_matrix(unit_square)
        dist = per_instance_distribution(dm, make_tour(np.array([0, 1, 2, 3]), dm))
        assert dist.support <= 2
        assert dist.masses.sum() == pytest.approx(1.0, abs=1e-12)

    def test_masses_sum_to_one(self):
        dm = distance_matrix(generate_uniform(15, 21))
        rng = np.random.default_rng(0)
        dist = per_instance_distribution(dm, make_tour(rng.permutation(15), dm))
        assert dist.masses.sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_directed_step_enumeration(self):
        inst = generate_uniform(10, 33)
        dm, ranks = dm_and_ranks(inst)
        tour = exact_solve(dm)
        dist = per_instance_distribution(dm, tour)
        # Walk the 20 directed steps by hand and tally ranks from the table's rows.
        rank = [{int(j): k for k, j in enumerate(ranks.row(i), start=1)} for i in range(10)]
        counts = {}
        order = list(tour.order)
        for t in range(10):
            i, j = order[t], order[(t + 1) % 10]
            counts[rank[i][j]] = counts.get(rank[i][j], 0) + 1
            counts[rank[j][i]] = counts.get(rank[j][i], 0) + 1
        assert sum(counts.values()) == 20
        for k, c in counts.items():
            assert dist.masses[k - 1] == pytest.approx(c / 20, abs=1e-12)

    def test_edges_beyond_a_truncated_table_count_exactly(self):
        """A random tour reaches far past the 30 ranks that ``prepare`` keeps; every rank is counted."""
        dm, ranks = dm_and_ranks(generate_uniform(200, 5))
        order = np.random.default_rng(0).permutation(200)
        expected = np.zeros(199, dtype=np.int64)
        for a, b in zip(order, np.roll(order, -1)):
            expected[np.flatnonzero(ranks.row(a) == b)] += 1
            expected[np.flatnonzero(ranks.row(b) == a)] += 1
        counts = rank_counts(dm, order)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, expected)
        assert counts[30:].sum() > 0

    def test_invalid_tour(self):
        dm = distance_matrix(generate_uniform(8, 1))
        with pytest.raises(InvalidTourError):
            rank_counts(dm, np.array([0, 1, 2]))
        with pytest.raises(InvalidTourError):
            rank_counts(dm, np.array([0, 1, 1, 2, 3, 4, 5, 6]))


@st.composite
def grid_tours(draw):
    """(points, tour order) on a small integer grid: duplicate cities and tied distances."""
    n = draw(st.integers(3, 24))
    points = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=n, max_size=n))
    return np.array(points, dtype=np.float64), np.array(draw(st.permutations(range(n))))


@settings(max_examples=100, deadline=None)
@given(grid_tours(), st.sampled_from(list(Metric)))
def test_rank_counts_match_per_row_sort(case, metric):
    points, order = case
    n = len(order)
    dm = distance_matrix(Instance(id="grid", points=points), metric)
    expected = np.zeros(n - 1, dtype=np.int64)
    for t in range(n):
        a, b = int(order[t]), int(order[(t + 1) % n])
        for i, j in ((a, b), (b, a)):
            ranked = sorted((c for c in range(n) if c != i), key=lambda c: (dm[i, c], c))
            expected[ranked.index(j)] += 1
    assert np.array_equal(rank_counts(dm, order), expected)


class TestAggregate:
    def test_single_identity(self):
        d = EmpiricalDistribution(masses=np.array([0.5, 0.5]), sample_count=1)
        agg = aggregate([d])
        assert np.array_equal(agg.masses, d.masses)
        assert agg.sample_count == 1

    def test_disjoint_support_halves(self):
        a = EmpiricalDistribution(masses=np.array([1.0]), sample_count=1)
        b = EmpiricalDistribution(masses=np.array([0.0, 1.0]), sample_count=1)
        agg = aggregate([a, b])
        assert np.allclose(agg.masses, [0.5, 0.5])
        assert agg.support == 2

    def test_matches_direct_mean(self):
        rng = np.random.default_rng(3)
        dists = []
        for _ in range(3):
            raw = rng.random(4)
            dists.append(EmpiricalDistribution(masses=raw / raw.sum(), sample_count=1))
        agg = aggregate(dists)
        expected = np.mean([d.masses for d in dists], axis=0)
        assert np.allclose(agg.masses, expected, atol=1e-12)
        assert agg.sample_count == 3

    def test_empty_input(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_permutation_invariant(self):
        rng = np.random.default_rng(9)
        dists = []
        for _ in range(4):
            raw = rng.random(3)
            dists.append(EmpiricalDistribution(masses=raw / raw.sum(), sample_count=1))
        a = aggregate(dists)
        b = aggregate(dists[::-1])
        assert np.allclose(a.masses, b.masses, atol=1e-15)


class TestCumulativeMass:
    def test_published_first_mass(self):
        assert cumulative_mass(builtin_as_distribution("tsp500"), 1) == 0.440078125

    def test_full_support_reaches_one(self):
        for name in ("tsp500", "tsp1000", "tsp10000"):
            dist = builtin_as_distribution(name)
            assert cumulative_mass(dist, dist.support) == pytest.approx(1.0, abs=1e-6)

    def test_published_top_five(self):
        masses = BUILTIN_PRIORS["tsp500"].masses
        expected = float(masses[:5].sum())
        assert cumulative_mass(builtin_as_distribution("tsp500"), 5) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.9432, abs=5e-4)

    def test_monotone_in_k(self):
        dist = builtin_as_distribution("tsp10000")
        values = [cumulative_mass(dist, k) for k in range(1, dist.support + 3)]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_circle_cumulative_two_is_one(self):
        dm = distance_matrix(circle_instance(9))
        dist = per_instance_distribution(dm, exact_solve(dm))
        assert cumulative_mass(dist, 2) == pytest.approx(1.0, abs=1e-12)


def test_csv_export_schema(tmp_path):
    dist = builtin_as_distribution("tsp500")
    path = tmp_path / "knn.csv"
    write_distribution_csv(dist, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "rank,mass,cumulative"
    assert len(lines) == dist.support + 1
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[1]) == 0.440078125
