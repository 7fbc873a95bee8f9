import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tspmcts.heatmaps import BUILTIN_PRIORS, build_gt_prior, cumulative_mass, rank_counts, write_distribution_csv
from tspmcts.instances import Instance, Metric, distance_matrix, generate_uniform, nearest_in_rows
from tspmcts.tours import exact_solve, make_tour

from conftest import circle_instance, dm_and_ranks


class TestPerInstanceDistribution:
    def test_square_mass_within_two_ranks(self, unit_square):
        dm = distance_matrix(unit_square)
        dist = build_gt_prior([dm], [make_tour(np.array([0, 1, 2, 3]), dm)])
        assert dist.truncation <= 2
        assert dist.masses.sum() == pytest.approx(1.0, abs=1e-12)

    def test_masses_sum_to_one(self):
        dm = distance_matrix(generate_uniform(15, 21))
        rng = np.random.default_rng(0)
        dist = build_gt_prior([dm], [make_tour(rng.permutation(15), dm)])
        assert dist.masses.sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_directed_step_enumeration(self):
        inst = generate_uniform(10, 33)
        dm, ranks = dm_and_ranks(inst)
        tour = exact_solve(dm)
        dist = build_gt_prior([dm], [tour])
        # Walk the 20 directed steps by hand and tally ranks from the table's rows.
        rank = [{int(j): k for k, j in enumerate(ranks.rows[i], start=1)} for i in range(10)]
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
            expected[np.flatnonzero(ranks.rows[a] == b)] += 1
            expected[np.flatnonzero(ranks.rows[b] == a)] += 1
        counts = rank_counts(dm, order)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, expected)
        assert counts[30:].sum() > 0

    def test_invalid_tour(self):
        dm = distance_matrix(generate_uniform(8, 1))
        with pytest.raises(ValueError, match=r"^tour has \(3,\) entries, expected \(8,\)$"):
            rank_counts(dm, np.array([0, 1, 2]))
        with pytest.raises(ValueError, match="^tour is missing cities"):
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
    dm = distance_matrix(Instance(id="grid", points=points, metric=metric))
    expected = np.zeros(n - 1, dtype=np.int64)
    for t in range(n):
        a, b = int(order[t]), int(order[(t + 1) % n])
        for i, j in ((a, b), (b, a)):
            ranked = sorted((c for c in range(n) if c != i), key=lambda c: (dm.pair(i, c), c))
            expected[ranked.index(j)] += 1
    assert np.array_equal(rank_counts(dm, order), expected)


@settings(max_examples=100, deadline=None)
@given(grid_tours(), st.sampled_from(list(Metric)), st.integers(1, 4))
def test_rank_counts_match_nearest_in_rows(case, metric, scale):
    """Counting the cities ahead ranks each tour neighbor where ``nearest_in_rows``
    sorts it, ties and duplicate cities included."""
    points, order = case
    n = len(order)
    dm = distance_matrix(Instance(id="grid", points=points * scale, metric=metric))
    ranked = nearest_in_rows(dm.rows(0, n), np.arange(n), n - 1)
    expected = np.zeros(n - 1, dtype=np.int64)
    for a, b in zip(order, np.roll(order, -1)):
        expected[np.flatnonzero(ranked[a] == b)] += 1
        expected[np.flatnonzero(ranked[b] == a)] += 1
    assert np.array_equal(rank_counts(dm, order), expected)


def corpus(sizes, seed):
    """Distance matrices and random tours of uniform instances: wide, differing supports."""
    rng = np.random.default_rng(seed)
    dms = [distance_matrix(generate_uniform(n, seed + n)) for n in sizes]
    return dms, [make_tour(rng.permutation(dm.n), dm) for dm in dms]


def tour_masses(dm, tour):
    """One tour's rank distribution: its counts over the 2n selections, up to the last observed rank."""
    counts = rank_counts(dm, tour.order)
    return counts[: np.flatnonzero(counts)[-1] + 1] / counts.sum()


class TestAggregate:
    """``build_gt_prior`` over several tours: the mean of their distributions."""

    def test_single_identity(self):
        dms, tours = corpus([9], 1)
        prior = build_gt_prior(dms, tours)
        assert np.array_equal(prior.masses, tour_masses(dms[0], tours[0]))

    def test_disjoint_support_halves(self):
        """A circle tour keeps to ranks 1-2 and a random tour reaches far beyond them:
        every rank gets half of each tour's mass, zero where a tour has none."""
        circle = distance_matrix(circle_instance(8))
        rank_one = make_tour(np.arange(8), circle)
        dms, tours = corpus([40], 2)
        wide = tour_masses(dms[0], tours[0])
        prior = build_gt_prior([circle, dms[0]], [rank_one, tours[0]])
        assert prior.truncation == wide.size > 2
        narrow = tour_masses(circle, rank_one)
        assert narrow.size <= 2
        narrow = np.pad(narrow, (0, wide.size - narrow.size))
        assert np.allclose(prior.masses, (narrow + wide) / 2, atol=1e-15)

    def test_matches_direct_mean(self):
        dms, tours = corpus([10, 25, 60], 3)
        each = [tour_masses(dm, t) for dm, t in zip(dms, tours)]
        assert len({m.size for m in each}) == 3
        prior = build_gt_prior(dms, tours)
        expected = np.mean([np.pad(m, (0, prior.truncation - m.size)) for m in each], axis=0)
        assert prior.truncation == max(m.size for m in each)
        assert np.allclose(prior.masses, expected, atol=1e-12)
        assert prior.masses.sum() == pytest.approx(1.0, abs=1e-12)

    def test_empty_input(self):
        with pytest.raises(ValueError):
            build_gt_prior([], [])

    def test_permutation_invariant(self):
        dms, tours = corpus([7, 13, 21, 30], 9)
        a = build_gt_prior(dms, tours)
        b = build_gt_prior(dms[::-1], tours[::-1])
        assert a.truncation == b.truncation
        assert np.allclose(a.masses, b.masses, atol=1e-15)


class TestCumulativeMass:
    def test_published_first_mass(self):
        assert cumulative_mass(BUILTIN_PRIORS["tsp500"], 1) == 0.440078125

    def test_full_support_reaches_one(self):
        for name in ("tsp500", "tsp1000", "tsp10000"):
            prior = BUILTIN_PRIORS[name]
            assert cumulative_mass(prior, prior.truncation) == pytest.approx(1.0, abs=1e-6)

    def test_published_top_five(self):
        masses = BUILTIN_PRIORS["tsp500"].masses
        expected = float(masses[:5].sum())
        assert cumulative_mass(BUILTIN_PRIORS["tsp500"], 5) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.9432, abs=5e-4)

    def test_monotone_in_k(self):
        prior = BUILTIN_PRIORS["tsp10000"]
        values = [cumulative_mass(prior, k) for k in range(1, prior.truncation + 3)]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_circle_cumulative_two_is_one(self):
        dm = distance_matrix(circle_instance(9))
        prior = build_gt_prior([dm], [exact_solve(dm)])
        assert cumulative_mass(prior, 2) == pytest.approx(1.0, abs=1e-12)


def test_csv_export_schema(tmp_path):
    prior = BUILTIN_PRIORS["tsp500"]
    path = tmp_path / "knn.csv"
    write_distribution_csv(prior, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "rank,mass,cumulative"
    assert len(lines) == prior.truncation + 1
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[1]) == 0.440078125
