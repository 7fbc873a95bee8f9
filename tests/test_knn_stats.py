import numpy as np
import pytest

from tspmcts.heatmaps import BUILTIN_PRIORS
from tspmcts.instances import distance_matrix, generate_uniform, nearest_neighbor_ranks
from tspmcts.knn_stats import (
    EmpiricalDistribution,
    aggregate,
    cumulative_mass,
    per_instance_distribution,
    write_distribution_csv,
)
from tspmcts.tours import exact_solve, make_tour

from conftest import circle_instance, dm_and_ranks


def builtin_as_distribution(name):
    return EmpiricalDistribution(masses=BUILTIN_PRIORS[name].masses, sample_count=1)


class TestPerInstanceDistribution:
    def test_square_mass_within_two_ranks(self, unit_square):
        dm, ranks = dm_and_ranks(unit_square)
        dist = per_instance_distribution(ranks, make_tour(np.array([0, 1, 2, 3]), dm))
        assert dist.support <= 2
        assert dist.masses.sum() == pytest.approx(1.0, abs=1e-12)

    def test_masses_sum_to_one(self):
        inst = generate_uniform(15, 21)
        dm, ranks = dm_and_ranks(inst)
        rng = np.random.default_rng(0)
        dist = per_instance_distribution(ranks, make_tour(rng.permutation(15), dm))
        assert dist.masses.sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_directed_step_enumeration(self):
        inst = generate_uniform(10, 33)
        dm, ranks = dm_and_ranks(inst)
        tour = exact_solve(dm)
        dist = per_instance_distribution(ranks, tour)
        # Walk the 20 directed steps by hand and tally ranks independently.
        counts = {}
        order = list(tour.order)
        for t in range(10):
            i, j = order[t], order[(t + 1) % 10]
            counts[ranks.rank_of(i, j)] = counts.get(ranks.rank_of(i, j), 0) + 1
            counts[ranks.rank_of(j, i)] = counts.get(ranks.rank_of(j, i), 0) + 1
        assert sum(counts.values()) == 20
        for k, c in counts.items():
            assert dist.masses[k - 1] == pytest.approx(c / 20, abs=1e-12)

    def test_truncated_table_counts_exactly_or_raises(self):
        from tspmcts.knn_stats import rank_counts

        inst = generate_uniform(40, 5)
        dm = distance_matrix(inst)
        order = np.random.default_rng(0).permutation(40)
        expected = rank_counts(nearest_neighbor_ranks(dm), order)
        raised = 0
        for width in range(1, 40):
            try:
                counts = rank_counts(nearest_neighbor_ranks(dm, width), order)
            except ValueError as exc:
                assert "beyond" in str(exc)
                raised += 1
            else:
                assert np.array_equal(counts, expected)
        # The longest rank on the tour decides: narrower tables raise, wider ones count.
        assert raised == int(np.flatnonzero(expected)[-1])

    def test_invalid_tour(self):
        inst = generate_uniform(8, 1)
        dm, ranks = dm_and_ranks(inst)
        from tspmcts.knn_stats import rank_counts
        from tspmcts.tours import InvalidTourError

        with pytest.raises(InvalidTourError):
            rank_counts(ranks, np.array([0, 1, 2]))


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
        inst = circle_instance(9)
        dm, ranks = dm_and_ranks(inst)
        dist = per_instance_distribution(ranks, exact_solve(dm))
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
