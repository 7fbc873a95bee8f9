"""Property-based write -> parse round trips for every file format the package reads."""
import string
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tspmcts.heatmaps import PriorVector, load_heatmap, load_prior, save_prior
from tspmcts.instances import Instance, parse_native, parse_tsplib, write_native
from tspmcts.tours import parse_tour, write_tour

from conftest import heatmap_from_rows, tsplib_text, write_heatmap

#: Probabilities: a few exact values (so rows have ties) or any float in [0, 1].
probabilities = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))
coordinates = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def heatmap_rows(draw):
    """(n, rows): each row a list of distinct non-self (neighbor, probability) entries."""
    n = draw(st.integers(2, 12))
    rows = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        neighbors = draw(st.lists(st.sampled_from(others), unique=True, max_size=n - 1))
        rows.append([(j, draw(probabilities)) for j in neighbors])
    return n, rows


@st.composite
def instances(draw):
    n = draw(st.integers(3, 20))
    points = draw(st.lists(st.tuples(coordinates, coordinates), min_size=n, max_size=n))
    name = draw(st.text(string.ascii_letters + string.digits + "_-.", min_size=1, max_size=12))
    return Instance(id=name, points=np.array(points))


@settings(max_examples=100, deadline=None)
@given(heatmap_rows())
def test_heatmap_rows_sort_by_descending_probability_then_neighbor(case):
    n, rows = case
    hm = heatmap_from_rows(n, rows)
    assert hm.entry_count() == sum(len(entries) for entries in rows)
    for i, entries in enumerate(rows):
        assert hm.row(i) == tuple(sorted(entries, key=lambda e: (-e[1], e[0])))
        present = dict(entries)
        for j in range(n):
            assert dict(hm.row(i)).get(j, 0.0) == present.get(j, 0.0)


@settings(max_examples=100, deadline=None)
@given(heatmap_rows())
def test_heatmap_file_round_trip(case):
    n, rows = case
    hm = heatmap_from_rows(n, rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "hm.txt"
        write_heatmap(hm, path)
        again = load_heatmap(path)
        assert again == hm
        assert [again.row(i) for i in range(n)] == [hm.row(i) for i in range(n)]
        resaved = Path(tmp) / "again.txt"
        write_heatmap(again, resaved)
        assert resaved.read_bytes() == path.read_bytes()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
def test_prior_file_round_trip(values):
    masses = np.array(values) / max(1.0, sum(values))
    prior = PriorVector(masses=masses)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "prior.txt"
        save_prior(prior, path)
        again = load_prior(path)
    assert again.masses.tobytes() == prior.masses.tobytes()


@settings(max_examples=100, deadline=None)
@given(instances())
def test_native_round_trip_is_exact(inst):
    again = parse_native(write_native(inst), id=inst.id)
    assert again.id == inst.id
    assert np.array_equal(again.points, inst.points)


@settings(max_examples=100, deadline=None)
@given(instances())
def test_tsplib_round_trip_is_exact(inst):
    text = tsplib_text(inst)
    again = parse_tsplib(text)
    assert again.id == inst.id
    assert again.points.tobytes() == inst.points.tobytes()
    assert tsplib_text(again) == text


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 60).flatmap(lambda n: st.permutations(range(n))))
def test_tour_round_trip(order):
    parsed = parse_tour(write_tour(np.array(order)))
    assert parsed.dtype == np.int32
    assert parsed.tolist() == list(order)
