import csv
import io
import random

import pytest

from tripleshard.replicate import (
    centrality_csv,
    compute_centrality,
    derive_threshold,
    replicate,
)
from tripleshard.store import Triple, TripleStore

from _helpers import brute_force_centrality, grown_plan, random_store


def _store(*rows):
    return TripleStore([Triple(*row) for row in rows])


# --- centrality ------------------------------------------------------------

def test_distinct_subjects_give_centrality_one():
    table = compute_centrality(_store(("a", "p", "x"), ("b", "p", "y")))
    assert table.values["p"] == 1.0
    assert table.counts["p"] == (2, 2)


def test_repeated_subject_halves_centrality():
    table = compute_centrality(_store(("a", "p", "x"), ("a", "p", "y")))
    assert table.values["p"] == 0.5
    assert table.counts["p"] == (1, 2)


def test_empty_store_rejected():
    with pytest.raises(ValueError):
        compute_centrality(TripleStore([]))


def test_centrality_law_randomized():
    rng = random.Random(53)
    for _ in range(60):
        store = random_store(rng, rng.randint(20, 500))
        table = compute_centrality(store)
        oracle = brute_force_centrality(store)
        assert set(table.values) == set(oracle)
        for predicate, value in table.values.items():
            expected, distinct, edges = oracle[predicate]
            assert value == pytest.approx(expected)
            assert 0.0 < value <= 1.0
            assert (value == 1.0) == (distinct == edges)
            assert table.counts[predicate] == (distinct, edges)


def test_centrality_csv_layout():
    text = centrality_csv(compute_centrality(_store(("a", "p", "x"), ("a", "p", "y"))))
    lines = text.splitlines()
    assert lines[0] == "predicate,distinctSubjects,edgeCount,centrality"
    assert lines[1] == "p,1,2,0.500000"


def test_centrality_csv_quotes_predicates_that_need_it():
    predicates = ("http://x/p,q", 'say"hi', "plain")
    table = compute_centrality(_store(*(("a", p, "1") for p in predicates)))
    rows = list(csv.reader(io.StringIO(centrality_csv(table))))
    assert rows[1:] == [[p, "1", "1", "1.000000"] for p in sorted(predicates)]


# --- threshold derivation --------------------------------------------------

def test_override_is_validated_and_passed_through():
    store = _store(("a", "p", "x"))
    table = compute_centrality(store)
    assert derive_threshold(table, store, ["a"], override=0.65) == 0.65
    for bad in (0.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            derive_threshold(table, store, ["a"], override=bad)


def test_threshold_is_centrality_of_most_frequent_top_predicate():
    store = _store(("a", "p", "x"), ("a", "p", "y"), ("a", "q", "z"), ("b", "q", "w"))
    table = compute_centrality(store)
    # among a's triples p occurs twice, q once; cen(p) = 1/2
    assert derive_threshold(table, store, ["a"]) == 0.5


def test_threshold_tie_breaks_to_smallest_predicate_name():
    store = _store(("a", "q", "x"), ("a", "p", "y"), ("b", "p", "z"))
    table = compute_centrality(store)
    # p and q occur once each for a; p wins the tie, cen(p) = 1.0
    assert derive_threshold(table, store, ["a"]) == 1.0


def test_threshold_needs_top_subjects_with_triples():
    store = _store(("a", "p", "x"))
    table = compute_centrality(store)
    with pytest.raises(ValueError):
        derive_threshold(table, store, [])
    with pytest.raises(ValueError):
        derive_threshold(table, store, ["ghost"])


# --- replica placement -----------------------------------------------------

def test_threshold_above_all_centralities_replicates_nothing():
    store = _store(("a", "p", "x"), ("a", "p", "y"))
    plan = grown_plan(store, 1, 2)
    table = compute_centrality(store)
    decision, augmented = replicate(plan, table, 1.0, store)
    assert decision.replicated_positions == ()
    assert augmented.replicas == ((), ())


def test_threshold_at_minimum_replicates_everything():
    rng = random.Random(59)
    store = random_store(rng, 150)
    plan = grown_plan(store, 2, 3)
    table = compute_centrality(store)
    decision, augmented = replicate(plan, table, min(table.values.values()), store)
    assert len(decision.replicated_positions) == store.n
    for node_id in range(3):
        owned = {pos for pos in range(store.n) if augmented.owner_of(pos) == node_id}
        assert owned | set(augmented.replicas[node_id]) == set(range(store.n))
        assert owned.isdisjoint(augmented.replicas[node_id])


def test_threshold_boundary_is_inclusive():
    store = _store(("a", "p", "x"), ("a", "p", "y"), ("b", "q", "z"))
    plan = grown_plan(store, 1, 2)
    table = compute_centrality(store)  # cen(p)=0.5, cen(q)=1.0
    inclusive, _ = replicate(plan, table, 0.5, store)
    assert inclusive.replicated_predicates == {"p", "q"}


def test_replication_level_is_fraction_of_store():
    store = _store(("a", "p", "x"), ("a", "p", "y"), ("b", "q", "z"))
    plan = grown_plan(store, 1, 2)
    table = compute_centrality(store)
    decision, _ = replicate(plan, table, 0.8, store)
    assert decision.replicated_predicates == {"q"}
    assert decision.replicated_positions == (2,)


def test_invalid_threshold_rejected():
    store = _store(("a", "p", "x"))
    plan = grown_plan(store, 1, 1)
    table = compute_centrality(store)
    for bad in (0.0, 1.0001, -1):
        with pytest.raises(ValueError):
            replicate(plan, table, bad, store)


def test_lower_threshold_never_replicates_less():
    rng = random.Random(61)
    for _ in range(20):
        store = random_store(rng, rng.randint(50, 400))
        plan = grown_plan(store, min(2, len(store.subject_index)), 3)
        table = compute_centrality(store)
        t1, t2 = sorted((rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0)))
        low, _ = replicate(plan, table, t1, store)
        high, _ = replicate(plan, table, t2, store)
        assert set(low.replicated_positions) >= set(high.replicated_positions)


def test_replicas_never_overlap_owned_data():
    rng = random.Random(67)
    store = random_store(rng, 300)
    plan = grown_plan(store, 3, 3)
    table = compute_centrality(store)
    _, augmented = replicate(plan, table, 0.5, store)
    augmented.validate(store)
    assert len(augmented.seen_by) == store.n
    for node_id in range(3):
        owned = {pos for pos in range(store.n) if augmented.owner_of(pos) == node_id}
        assert owned.isdisjoint(augmented.replicas[node_id])
        held = owned | set(augmented.replicas[node_id])
        seen = {pos for pos, mask in enumerate(augmented.seen_by) if mask >> node_id & 1}
        assert seen == held
        mask = augmented.visible_positions(node_id)
        assert len(mask) == store.n
        assert {pos for pos in range(store.n) if mask[pos]} == held
    for bad in (-1, 3):
        with pytest.raises(ValueError):
            augmented.visible_positions(bad)
