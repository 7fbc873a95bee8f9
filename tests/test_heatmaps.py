import re
import tracemalloc

import numpy as np
import pytest

from tspmcts.heatmaps import (
    BUILTIN_PRIORS,
    FileSource,
    Heatmap,
    PriorVector,
    build_gt_prior,
    load_heatmap,
    load_prior,
    prior_to_heatmap,
    softdist_heatmap,
    write_distribution_csv,
    zero_heatmap,
)
from tspmcts.instances import Instance, Metric, distance_matrix, generate_uniform
from tspmcts.tours import exact_solve, make_tour

from conftest import circle_instance, dm_and_ranks, heatmap_from_rows, write_heatmap


def oracle_corpus(count, n, seed0):
    """Distance matrices and exact tours for small uniform instances."""
    dms = [distance_matrix(generate_uniform(n, seed0 + i)) for i in range(count)]
    return dms, [exact_solve(dm) for dm in dms]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_prior_rejects_non_finite_masses(bad):
    with pytest.raises(ValueError, match="masses"):
        PriorVector(masses=np.array([0.5, bad, 0.1]))


class TestBuiltinPriors:
    def test_vector_lengths(self):
        assert BUILTIN_PRIORS["tsp500"].truncation == 24
        assert BUILTIN_PRIORS["tsp1000"].truncation == 23
        assert BUILTIN_PRIORS["tsp10000"].truncation == 30

    def test_sums_to_one(self):
        for prior in BUILTIN_PRIORS.values():
            assert prior.masses.sum() == pytest.approx(1.0, abs=1e-6)

    def test_leading_masses(self):
        masses = BUILTIN_PRIORS["tsp500"].masses
        assert masses[0] == 0.440078125
        assert masses[1] == 0.256265625
        assert masses[2] == 0.132750000


class TestBuildGtPrior:
    def test_circle_mass_at_first_two_ranks(self):
        # On a circle each tour neighbor is a rank-1 neighbor up to ties,
        # which the index rule can push to rank 2; nothing goes beyond.
        dm = distance_matrix(circle_instance(12))
        tour = make_tour(np.arange(12), dm)
        prior = build_gt_prior([dm], [tour])
        assert prior.truncation <= 2
        assert prior.masses.sum() == pytest.approx(1.0, abs=1e-9)

    def test_small_oracle_corpus_is_local(self):
        dms, tours = oracle_corpus(30, 12, 5000)
        prior = build_gt_prior(dms, tours)
        assert prior.masses.sum() == pytest.approx(1.0, abs=1e-9)
        assert prior.masses[:5].sum() >= 0.85
        assert prior.truncation <= 11

    def test_mismatched_lengths(self):
        dms, tours = oracle_corpus(2, 8, 100)
        with pytest.raises(ValueError):
            build_gt_prior(dms[:1], tours)


class TestPriorToHeatmap:
    def test_degenerate_prior_single_entry_rows(self):
        inst = generate_uniform(10, 1)
        _, ranks = dm_and_ranks(inst)
        hm = prior_to_heatmap(PriorVector(np.array([1.0])), ranks)
        for i in range(10):
            assert hm.row(i) == ((int(ranks.rows[i][0]), 1.0),)

    def test_published_vector_rows(self):
        inst = generate_uniform(500, 42)
        _, ranks = dm_and_ranks(inst)
        prior = BUILTIN_PRIORS["tsp500"]
        hm = prior_to_heatmap(prior, ranks)
        for i in (0, 123, 499):
            row = hm.row(i)
            assert len(row) == 24
            by_rank = {j: p for j, p in row}
            for k, j in enumerate(ranks.rows[i][:24]):
                assert by_rank[int(j)] == prior.masses[k]

    def test_circle_prior_round_trip(self):
        inst = circle_instance(10)
        dm, ranks = dm_and_ranks(inst)
        prior = build_gt_prior([dm], [make_tour(np.arange(10), dm)])
        hm = prior_to_heatmap(prior, ranks)
        for i in range(10):
            row = ranks.rows[i].tolist()
            assert {row.index(j) + 1 for j, _ in hm.row(i)} <= {1, 2}

    def test_rank_monotonicity(self):
        inst = generate_uniform(30, 2)
        _, ranks = dm_and_ranks(inst)
        hm = prior_to_heatmap(BUILTIN_PRIORS["tsp1000"], ranks)
        for i in range(30):
            probs = [p for _, p in hm.row(i)]
            assert probs == sorted(probs, reverse=True)

    def test_rows_in_canonical_order(self):
        # tsp500 repeats some masses, so the neighbor index breaks those ties.
        _, ranks = dm_and_ranks(generate_uniform(60, 3))
        prior = BUILTIN_PRIORS["tsp500"]
        hm = prior_to_heatmap(prior, ranks)
        for i in range(60):
            entries = [(int(j), float(p)) for j, p in zip(ranks.rows[i][:24], prior.masses)]
            assert hm.row(i) == tuple(sorted(entries, key=lambda e: (-e[1], e[0])))

    def test_build_memory_stays_near_output_size(self):
        _, ranks = dm_and_ranks(generate_uniform(1500, 0))
        tracemalloc.start()
        try:
            hm = prior_to_heatmap(BUILTIN_PRIORS["tsp10000"], ranks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert int(hm.indptr[-1]) == 1500 * 30
        assert peak <= 2.5 * (hm.indptr.nbytes + hm.cols.nbytes + hm.probs.nbytes)


class TestHeatmapArrays:
    def test_rows_are_csr_slices(self):
        hm = heatmap_from_rows(4, [[(2, 0.25), (1, 0.5)], [], [(0, 1.0)], []])
        assert hm.indptr.tolist() == [0, 2, 2, 3, 3]
        assert hm.cols.dtype == np.int32 and hm.cols.tolist() == [1, 2, 0]
        assert hm.probs.dtype == np.float64 and hm.probs.tolist() == [0.5, 0.25, 1.0]
        assert not hm.probs.flags.writeable

    def test_rejects_pointers_that_do_not_fit(self):
        with pytest.raises(ValueError, match="row pointers"):
            Heatmap(n=3, indptr=np.array([0, 1, 1]), cols=np.array([1]), probs=np.array([0.5]))
        with pytest.raises(ValueError, match="row pointers"):
            Heatmap(n=2, indptr=np.array([0, 1, 2]), cols=np.array([1]), probs=np.array([0.5]))

    @pytest.mark.parametrize("bad", [np.nan, -0.25, 1.5, np.inf])
    def test_rejects_probabilities_outside_unit_interval(self, bad):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            Heatmap(n=2, indptr=np.array([0, 1, 2]), cols=np.array([1, 0]), probs=np.array([0.5, bad]))


class TestZeroHeatmap:
    def test_empty_rows(self):
        hm = zero_heatmap(5)
        assert hm.n == 5
        assert all(hm.row(i) == () for i in range(hm.n))
        assert int(hm.indptr[-1]) == 0
        assert dict(hm.row(0)).get(1, 0.0) == 0.0


class TestSoftDist:
    def test_equidistant_neighbors_equal_probability(self):
        from tspmcts.instances import Instance

        inst = Instance(id="t", points=np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]]))
        dm, _ = dm_and_ranks(inst)
        hm = softdist_heatmap(dm, tau=0.5, k_keep=2)
        row = dict(hm.row(0))
        assert row[1] == pytest.approx(row[2], rel=1e-12)

    def test_large_tau_approaches_uniform(self):
        inst = generate_uniform(8, 3)
        dm, _ = dm_and_ranks(inst)
        hm = softdist_heatmap(dm, tau=1e9, k_keep=7)
        for i in range(8):
            for _, p in hm.row(i):
                assert p == pytest.approx(1 / 7, rel=1e-6)

    def test_matches_direct_evaluation(self):
        inst = generate_uniform(6, 9)
        dm, _ = dm_and_ranks(inst)
        tau = 0.1
        hm = softdist_heatmap(dm, tau=tau, k_keep=5)
        i = 2
        weights = {j: np.exp(-dm.pair(i, j) / tau) for j in range(6) if j != i}
        total = sum(weights.values())
        for j, p in hm.row(i):
            assert p == pytest.approx(weights[j] / total, rel=1e-9)

    def test_rows_sum_to_one_before_truncation(self):
        inst = generate_uniform(12, 4)
        dm, _ = dm_and_ranks(inst)
        hm = softdist_heatmap(dm, tau=0.3, k_keep=11)
        for i in range(12):
            assert sum(p for _, p in hm.row(i)) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("metric", list(Metric))
    def test_rows_identical_to_whole_matrix_formula(self, metric):
        inst = Instance(id="t", points=generate_uniform(40, 6).points * 100)
        dm, _ = dm_and_ranks(inst, metric)
        tau, k = 7.5, 6
        hm = softdist_heatmap(dm, tau=tau, k_keep=k)
        # The formula as written over a float64 copy of the whole matrix.
        d = dm.entries.astype(np.float64)
        for i in range(inst.n):
            logits = -d[i] / tau
            logits[i] = -np.inf
            logits -= logits.max()
            weights = np.exp(logits)
            probs = weights / weights.sum()
            keep = np.argsort(-probs, kind="stable")[:k]
            expected = [(int(j), float(probs[j]).hex()) for j in keep if j != i]
            assert sorted(expected) == sorted((j, p.hex()) for j, p in hm.row(i))

    def test_bad_tau(self):
        inst = generate_uniform(5, 0)
        dm, _ = dm_and_ranks(inst)
        with pytest.raises(ValueError):
            softdist_heatmap(dm, tau=0.0, k_keep=3)
        with pytest.raises(ValueError, match="tau"):
            softdist_heatmap(dm, tau=np.nan, k_keep=3)
        with pytest.raises(ValueError, match="tau must be finite"):  # every probability of a row would tie
            softdist_heatmap(dm, tau=np.inf, k_keep=3)

    def test_tau_too_small_for_the_distances(self):
        """-d / tau would overflow to -inf in every entry of a row, which makes its softmax NaN:
        the tau is rejected before any row is computed, so numpy raises no floating-point error."""
        dm, _ = dm_and_ranks(generate_uniform(5, 0))
        with np.errstate(over="raise", invalid="raise"), pytest.raises(ValueError, match="tau 1e-320 is too small"):
            softdist_heatmap(dm, tau=1e-320, k_keep=3)


class TestHeatmapIO:
    def test_round_trip(self, tmp_path):
        inst = generate_uniform(9, 6)
        dm, _ = dm_and_ranks(inst)
        hm = softdist_heatmap(dm, tau=0.4, k_keep=4)
        path = tmp_path / "hm.txt"
        write_heatmap(hm, path)
        assert load_heatmap(path) == hm

    def test_self_edge_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 1\n2 2 0.5\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 2: self-edge"):
            load_heatmap(path)

    def test_out_of_range_probability(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 1\n0 1 1.5\n")
        with pytest.raises(ValueError, match=r"line 2: probability outside \[0, 1\]"):
            load_heatmap(path)

    def test_index_out_of_range(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 1\n0 3 0.5\n")
        with pytest.raises(ValueError, match="line 2: index out of range for n=3"):
            load_heatmap(path)

    def test_header_n_is_checked_before_anything_is_sized(self, tmp_path):
        """A header n of 10^12 against a 5-city instance fails on the count, not on allocating
        arrays of that size."""
        path = tmp_path / "huge.txt"
        path.write_text("1000000000000 0\n")
        with pytest.raises(ValueError, match="heatmap file is for n=1000000000000, instance has n=5"):
            FileSource(str(path))(generate_uniform(5, 0), None, None)

    def test_prior_round_trip(self, tmp_path):
        path = tmp_path / "knn.csv"
        write_distribution_csv(BUILTIN_PRIORS["tsp500"], path)
        again = load_prior(path)
        assert np.array_equal(again.masses, BUILTIN_PRIORS["tsp500"].masses)
