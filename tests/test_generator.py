import hashlib
import statistics

import pytest

from tripleshard.generator import (
    CORE_MEASUREMENTS,
    EXTRA_MEASUREMENTS,
    LINK_PREDICATE,
    generate_sensor_graph,
)
from tripleshard.store import parse_ntriples, serialize_ntriples


def test_zero_sensors_is_empty():
    assert generate_sensor_graph(1, 0, 50).n == 0


def test_negative_counts_rejected():
    with pytest.raises(ValueError):
        generate_sensor_graph(1, -1, 10)
    with pytest.raises(ValueError):
        generate_sensor_graph(1, 10, -1)


def test_sensors_without_observations_keep_only_their_own_triples():
    store = generate_sensor_graph(3, 5, 0)
    # region, model and two adjacency triples per sensor, and nothing else
    assert sorted(store.subject_index) == [f"sensor/{i:04d}" for i in range(5)]
    assert store.n == 5 * 4 and LINK_PREDICATE not in store.predicate_index
    # pinned: drawing no observation count leaves the random chords as they are
    assert hashlib.sha256(serialize_ntriples(store).encode()).hexdigest() == (
        "eb658ec6af88ac93b1add359615cb377dd5f706a27c22d99169dd67ef69e8ae5")


def test_deterministic_for_equal_arguments():
    a = serialize_ntriples(generate_sensor_graph(2, 3, 5))
    b = serialize_ntriples(generate_sensor_graph(2, 3, 5))
    assert a == b
    different = serialize_ntriples(generate_sensor_graph(3, 3, 5))
    assert a != different


def test_serialization_is_pinned_across_processes():
    text = serialize_ntriples(generate_sensor_graph(7, 50, 60))
    assert text.count("\n") == 15_740
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "42e6db1b561850e41efbb4dbf24284cba1a6ef4f04b090a5965c6c5f7ffd1ef9")


def test_size_bounds_hold():
    store = generate_sensor_graph(1, 10, 100)
    assert len(store.subject_index) <= 10 + 10 * 100
    assert store.n >= 10 * 100


def test_output_parses_back():
    store = generate_sensor_graph(9, 4, 6)
    assert parse_ntriples(serialize_ntriples(store)) == store


def test_out_degree_is_skewed():
    store = generate_sensor_graph(1, 10, 100)
    degrees = sorted(len(ps) for ps in store.subject_index.values())
    median = statistics.median(degrees)
    assert degrees[-1] >= 5 * median


def test_observations_carry_four_to_six_measurements():
    store = generate_sensor_graph(5, 6, 20)
    vocabulary = set(CORE_MEASUREMENTS) | set(EXTRA_MEASUREMENTS)
    observations = {
        store.triples[p].object
        for p in store.predicate_index[LINK_PREDICATE]
    }
    assert observations
    for obs in observations:
        predicates = {store.triples[p].predicate for p in store.subject_index[obs]}
        assert predicates <= vocabulary
        assert 4 <= len(predicates) <= 6
        for p in store.subject_index[obs]:
            t = store.triples[p]
            assert t.object_is_literal
            float(t.object)  # measurement values are numeric strings


def test_sensors_link_to_observations():
    store = generate_sensor_graph(7, 5, 8)
    for pos in store.predicate_index[LINK_PREDICATE]:
        t = store.triples[pos]
        assert t.subject.startswith("sensor/")
        assert t.object.startswith("obs/")
        assert not t.object_is_literal
        # the observation group exists, so growth can follow the link
        assert t.object in store.subject_index
