import itertools
import json
import math
import random
import re
import statistics
from dataclasses import replace
from pathlib import Path

import pytest

import tripleshard.query as query_module
from tripleshard.generator import LINK_PREDICATE, MODEL_PREDICATE, generate_sensor_graph
from tripleshard.partition import top_subjects
from tripleshard.plan import PartitionPlan, round_robin_triple_plan
from tripleshard.query import (
    DEFAULT_WORKLOAD_COUNTS,
    HOP_PENALTY,
    QueryOutcome,
    QueryPattern,
    QueryResult,
    RangeFilter,
    TriplePattern,
    evaluate_centralized,
    evaluate_distributed,
    generate_workload,
    inc_report,
    inc_report_csv,
    inc_report_table,
    query_from_dict,
    workload_from_json,
    workload_to_json,
)
from tripleshard.replicate import compute_centrality, replicate
from tripleshard.store import CsvMapping, Triple, TripleStore, ingest_csv, parse_ntriples

from _helpers import count_ops, grown_plan, numeric_store, random_store, range_oracle


def _store(*rows):
    return TripleStore([Triple(*row) for row in rows])


def _rows(result):
    return [dict(b) for b in sorted(result.bindings)]


# --- centralized reference route -------------------------------------------

def test_star_on_constant_subject():
    store = _store(("a", "p", "x"), ("a", "q", "y"))
    q = QueryPattern(
        "star", (TriplePattern("a", "p", "?o1"), TriplePattern("a", "q", "?o2"))
    )
    result = evaluate_centralized(store, q)
    assert _rows(result) == [{"?o1": "x", "?o2": "y"}]


def test_absent_predicate_gives_empty_bindings():
    store = _store(("a", "p", "x"))
    q = QueryPattern(
        "star", (TriplePattern("a", "p", "?o1"), TriplePattern("a", "zz", "?o2"))
    )
    assert evaluate_centralized(store, q).bindings == frozenset()


def test_chain_follows_resource_object():
    store = _store(("a", "p", "b"), ("b", "q", "c"))
    q = QueryPattern(
        "linear", (TriplePattern("a", "p", "?x"), TriplePattern("?x", "q", "?y"))
    )
    assert _rows(evaluate_centralized(store, q)) == [{"?x": "b", "?y": "c"}]


def test_range_filters_numeric_band():
    store = _store(("s1", "t", "20", True), ("s2", "t", "40", True))
    q = QueryPattern(
        "range",
        (TriplePattern("?s", "t", "?value"),),
        RangeFilter("t", 10.0, 30.0),
    )
    result = evaluate_centralized(store, q)
    assert _rows(result) == [{"?s": "s1", "?value": "20"}]


def test_range_drops_non_numeric_values():
    store = _store(("s1", "t", "20", True), ("s2", "t", "hot", True))
    q = QueryPattern(
        "range", (TriplePattern("?s", "t", "?value"),), RangeFilter("t", 0.0, 100.0)
    )
    assert _rows(evaluate_centralized(store, q)) == [{"?s": "s1", "?value": "20"}]


def test_repeated_variable_must_match_itself():
    store = _store(("a", "p", "a"), ("a", "p", "b"))
    q = QueryPattern("star", (TriplePattern("?x", "p", "?x"),))
    assert _rows(evaluate_centralized(store, q)) == [{"?x": "a"}]


def test_validation_rejects_malformed_shapes():
    with pytest.raises(ValueError):
        QueryPattern("star", ())
    with pytest.raises(ValueError):
        QueryPattern(
            "linear",
            (TriplePattern("a", "p", "x"), TriplePattern("?y", "q", "?z")),
        )
    with pytest.raises(ValueError):
        QueryPattern(
            "star",
            (TriplePattern("a", "p", "?x"), TriplePattern("b", "q", "?y")),
        )
    with pytest.raises(ValueError):
        QueryPattern("range", (TriplePattern("?s", "t", "?v"),))
    with pytest.raises(ValueError):
        QueryPattern(
            "range",
            (TriplePattern("?s", "t", "?v"),),
            RangeFilter("other", 0, 1),
        )
    with pytest.raises(ValueError):
        QueryPattern("mystery", (TriplePattern("a", "p", "?x"),))


@pytest.mark.parametrize("low, high", [(math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan)])
def test_nan_range_bounds_are_rejected(low, high):
    with pytest.raises(ValueError, match="range filter bounds must be numbers, not NaN"):
        QueryPattern("range", (TriplePattern("?s", "t", "?v"),), RangeFilter("t", low, high))
    data = {
        "type": "range",
        "patterns": [{"s": "?s", "p": "t", "o": "?v"}],
        "filter": {"predicate": "t", "low": low, "high": high},
    }
    with pytest.raises(ValueError, match="not NaN"):
        query_from_dict(data)
    with pytest.raises(ValueError, match="not NaN"):
        workload_from_json(json.dumps([data]))


@pytest.mark.parametrize("low, high", [(True, 5), ("a", "b")])
def test_range_filter_bounds_must_be_numbers(low, high):
    with pytest.raises(ValueError, match="filter 'low' must be a number"):
        RangeFilter("t", low, high)


STAR = {"type": "star", "patterns": [{"s": "a", "p": "p", "o": "?x"}]}


@pytest.mark.parametrize("entry, message", [
    ({"patterns": STAR["patterns"]}, "query has no 'type' key"),
    ({"type": "star"}, "query has no 'patterns' key"),
    ({"type": "star", "patterns": {"s": "a"}}, "query 'patterns' must be a list"),
    ({"type": "star", "patterns": [{"s": "a", "p": "p"}]}, "pattern 0 has no 'o' key"),
    ({"type": "star", "patterns": [["a", "p", "?x"]]}, "pattern 0 must be a JSON object"),
    ({"type": "star", "patterns": [{"s": 5, "p": "p", "o": "?x"}]},
     "pattern terms must be non-empty strings, got 5"),
    ({**STAR, "filter": {"predicate": "p", "low": 0}}, "filter has no 'high' key"),
    ({**STAR, "filter": {"predicate": "p", "low": "0", "high": 1}},
     "filter 'low' must be a number"),
    ({**STAR, "filter": {"predicate": "p", "low": 0, "high": True}},
     "filter 'high' must be a number"),
    ("star", "query must be a JSON object"),
    (None, "query must be a JSON object"),
])
def test_malformed_workload_entry_names_its_index_and_key(entry, message):
    with pytest.raises(ValueError, match=re.escape(f"query 1: {message}")):
        workload_from_json(json.dumps([STAR, entry]))


def test_workload_file_must_hold_a_list():
    with pytest.raises(ValueError, match="JSON list of queries"):
        workload_from_json(json.dumps(STAR))


@pytest.mark.parametrize("term", [5, None, ("a",), ""])
def test_query_terms_must_be_non_empty_strings(term):
    with pytest.raises(ValueError, match="pattern terms must be non-empty strings"):
        QueryPattern("star", (TriplePattern("a", "p", term),))


# --- distributed route ------------------------------------------------------

def _split_plan():
    """(a,p,b) owned by node 0, (b,q,c) owned by node 1."""
    return PartitionPlan(
        fragment_of=(0, 1),
        node_of_fragment=(0, 1),
        m=2,
    )


CHAIN = QueryPattern(
    "linear", (TriplePattern("a", "p", "?x"), TriplePattern("?x", "q", "?y"))
)


def test_split_chain_touches_both_nodes():
    store = _store(("a", "p", "b"), ("b", "q", "c"))
    # home 0 scans (a,p,b) itself and (b,q,c) remotely; home 1 cannot see the
    # first hop's one candidate, so only (a,p,b) is charged, as a remote scan
    for home, scanned in ((0, 2), (1, 1)):
        result = evaluate_distributed(store, _split_plan(), CHAIN, home_node=home)
        assert not result.metrics.locally_answered
        assert result.metrics.nodes_touched == 2
        assert _rows(result) == [{"?x": "b", "?y": "c"}]
        assert result.metrics.triples_scanned == scanned
        assert result.metrics.qet_proxy == scanned + HOP_PENALTY


def test_literal_twin_chain_matches_reference():
    # (a,p,b) and (a,p,"b") bind ?x to b twice; the twin rows collapse and the
    # memoized second hop is charged once
    store = _store(("a", "p", "b", False), ("a", "p", "b", True), ("b", "q", "c"))
    plan = PartitionPlan(
        fragment_of=(0, 0, 1),
        node_of_fragment=(0, 1),
        m=2,
    )
    reference = evaluate_centralized(store, CHAIN)
    assert _rows(reference) == [{"?x": "b", "?y": "c"}]
    for home, scanned in ((0, 3), (1, 2)):
        result = evaluate_distributed(store, plan, CHAIN, home_node=home)
        assert result.bindings == reference.bindings
        assert result.metrics.nodes_touched == 2
        assert result.metrics.triples_scanned == scanned
        assert result.metrics.qet_proxy == scanned + HOP_PENALTY


def test_binding_with_chains_on_two_nodes_is_local_at_both():
    # ?x=b, ?y=c has four derivations through the literal/resource twins;
    # node 0 sees the resource chain whole, node 1 the literal one
    store = _store(
        ("a", "p", "b", False), ("a", "p", "b", True),
        ("b", "q", "c", False), ("b", "q", "c", True),
    )
    plan = PartitionPlan(
        fragment_of=(0, 1, 0, 1),
        node_of_fragment=(0, 1),
        m=2,
    )
    for home in range(plan.m):
        result = evaluate_distributed(store, plan, CHAIN, home_node=home)
        assert _rows(result) == [{"?x": "b", "?y": "c"}]
        assert result.metrics.locally_answered
        assert result.metrics.nodes_touched == 1
        assert result.metrics.triples_scanned == 2
        assert result.metrics.qet_proxy == 2


def test_probe_sent_only_from_unseen_rows_is_not_scanned_locally():
    # home 0 sees the replicated (d,q,e) but not (a,p,d), so it never sends
    # the (d,q,?y) probe itself: that probe is charged to it as a remote scan
    # of nothing it cannot see, never as a local scan; the replica serves
    # home 0 from home 0, so node 2, its owner, is not touched
    store = _store(("a", "p", "b"), ("a", "p", "d"), ("b", "q", "c"), ("d", "q", "e"))
    plan = PartitionPlan(
        fragment_of=(0, 1, 0, 2),
        node_of_fragment=(0, 1, 2),
        m=3,
        replicated=(3,),
    )
    assert plan.replicas == ((3,), (3,), ())
    for home, scanned, nodes in ((0, 3, 2), (1, 4, 2), (2, 3, 3)):
        result = evaluate_distributed(store, plan, CHAIN, home_node=home)
        assert _rows(result) == [{"?x": "b", "?y": "c"}, {"?x": "d", "?y": "e"}]
        assert not result.metrics.locally_answered
        assert result.metrics.nodes_touched == nodes
        assert result.metrics.triples_scanned == scanned
        assert result.metrics.qet_proxy == scanned + HOP_PENALTY * (nodes - 1)


def test_co_located_chain_is_local():
    store = _store(("a", "p", "b"), ("b", "q", "c"))
    plan = PartitionPlan(
        fragment_of=(0, 0),
        node_of_fragment=(0,),
        m=2,
    )
    result = evaluate_distributed(store, plan, CHAIN, home_node=0)
    assert result.metrics.locally_answered
    assert result.metrics.nodes_touched == 1
    assert result.metrics.qet_proxy == result.metrics.triples_scanned


def test_replicas_make_the_split_chain_local():
    store = _store(("a", "p", "b"), ("b", "q", "c"))
    plan = replace(_split_plan(), replicated=(0, 1))
    assert plan.replicas == ((1,), (0,))
    result = evaluate_distributed(store, plan, CHAIN, home_node=0)
    assert result.metrics.locally_answered
    assert result.metrics.nodes_touched == 1


def _generic_queries(rng, store, count):
    """Random valid queries of every shape whose patterns take the generic
    forms as well as the probe form: variable predicates, constant objects,
    variables repeated within or across patterns, and range scans other
    than ``?s P ?o``. Each pattern is drawn from a triple of the data, so
    many queries have answers."""
    triples, index = store.triples, store.subject_index
    subjects = sorted(index)

    def is_link(pos):
        return not triples[pos].object_is_literal and triples[pos].object in index

    links = [s for s in subjects if any(map(is_link, index[s]))]
    linked = set(links)

    def variables(*patterns):
        return [term for pat in patterns for term in pat if term[0] == "?"]

    def leg(subject, term, bound, fresh, link=False):
        # one of the subject's triples (a link to another subject when asked);
        # its predicate stays, or becomes a fresh or a bound variable; its
        # object stays, or becomes the fresh variable (always, on a link) or
        # a bound one
        t = triples[rng.choice([pos for pos in index[subject] if not link or is_link(pos)])]
        roll = rng.random()
        if roll < 0.6:
            p = t.predicate
        elif roll < 0.9 or not bound:
            p = rng.choice(("?p", "?q"))
        else:
            p = rng.choice(bound)
        roll = rng.random()
        if link or 0.35 <= roll < 0.85 or (roll >= 0.85 and not bound):
            o = fresh
        elif roll < 0.35:
            o = t.object
        else:
            o = rng.choice(bound)
        return TriplePattern(term, p, o), t.object

    def centre(pool):
        subject = rng.choice(pool)
        return subject, subject if rng.random() < 0.6 else "?c"

    queries = []
    while len(queries) < count:
        shape = rng.choice(("linear", "star", "snowflake", "range"))
        if shape == "range":
            t = triples[rng.randrange(store.n)]
            s = t.subject if rng.random() < 0.4 else "?s"
            p = t.predicate if rng.random() < 0.6 else "?p"
            o = t.object if rng.random() < 0.3 else rng.choice(["?value", *variables([s])])
            low, high = sorted(rng.choice((-math.inf, math.inf, rng.uniform(0, 100))) for _ in range(2))
            queries.append(QueryPattern("range", (TriplePattern(s, p, o),), RangeFilter(p, low, high)))
            continue
        if shape != "star" and not links:
            continue
        subject, term = centre(subjects if shape == "star" else links)
        patterns = []
        if shape == "linear":
            for i in range(rng.randint(1, 3)):
                last = i == 2 or subject not in linked or rng.random() < 0.3
                pattern, subject = leg(subject, term, variables(*patterns, [term]), f"?h{i}", not last)
                patterns.append(pattern)
                term = pattern.object
                if last:
                    break
        else:
            for i in range(rng.randint(2, 3)):
                patterns.append(leg(subject, term, variables(*patterns, [term]), f"?v{i}")[0])
            if shape == "snowflake":
                pattern, tail = leg(subject, term, variables(*patterns, [term]), "?b", link=True)
                patterns.append(pattern)
                patterns.append(leg(tail, "?b", variables(*patterns), "?t")[0])
        queries.append(QueryPattern(shape, tuple(patterns)))
    return queries


def test_generic_queries_cover_every_form():
    rng = random.Random(3)
    store = random_store(rng, 80)
    forms = set()
    for q in _generic_queries(rng, store, 200):
        forms.add(q.shape)
        for pattern in q.patterns:
            forms.add("variable predicate" if pattern.predicate[0] == "?" else "constant predicate")
            forms.add("variable object" if pattern.object[0] == "?" else "constant object")
            names = [term for term in pattern if term[0] == "?"]
            if len(set(names)) < len(names):
                forms.add("repeated variable")
        if q.shape == "range" and (q.patterns[0].subject[0] != "?" or q.patterns[0].object[0] != "?"):
            forms.add("generic range")
    assert forms >= {"linear", "star", "snowflake", "range", "variable predicate",
                     "constant object", "repeated variable", "generic range"}


def test_distributed_bindings_always_match_reference():
    rng = random.Random(71)
    for _ in range(15):
        store = random_store(rng, rng.randint(40, 300))
        k = min(3, len(store.subject_index))
        plan = grown_plan(store, k, 3)
        table = compute_centrality(store)
        threshold = rng.uniform(0.2, 1.0)
        _, replicated_plan = replicate(plan, table, threshold, store)
        random_plan = _random_plan(rng, store, rng.randint(1, 6), rng.randint(1, 4))
        workload = generate_workload(store, rng.randint(0, 999)) + _generic_queries(rng, store, 12)
        for q in workload:
            reference = evaluate_centralized(store, q).bindings
            for use in (plan, replicated_plan, random_plan):
                for home in range(use.m):
                    assert (
                        evaluate_distributed(store, use, q, home).bindings == reference
                    )


def _slot_matches(store, terms, free):
    """The distributed route's matches, each as the tuple of values it binds
    and its mask; with positions for masks (``seen_by`` is the identity), a
    mask names its triple."""
    candidates, matches = query_module._probe_matches(store, range(store.n), *terms, free)
    return list(candidates), matches


def _generic_matches(store, terms, free):
    """The reference matcher's matches in slots: each variable first seen in
    the pattern, in term order, with the matched position."""
    names = list(dict.fromkeys(term for term, var in zip(terms, free) if var))
    candidates, matches = query_module._pattern_matches(store, *terms, free)
    return list(candidates), [(tuple(row[name] for name in names), pos) for pos, row in matches]


def test_probe_matcher_equals_the_generic_matcher():
    # oracle: the distributed route's matcher examines the same candidates
    # and finds the same matches, in the same order, as the reference's, on
    # every constant/variable form, with repeated variables, absent terms,
    # literal/resource twins and constants that look like variables
    rng = random.Random(47)
    names = ("?x", "?y", "?z")
    for _ in range(12):
        triples = list(random_store(rng, rng.randint(30, 300)).triples)
        triples += [t._replace(object_is_literal=not t.object_is_literal)
                    for t in rng.sample(triples, 10)]
        triples += [Triple(*(rng.choice((term, *names)) for term in t[:3]), t.object_is_literal)
                    for t in rng.sample(triples, 10)]
        store = TripleStore(triples)
        pools = [
            sorted(store.subject_index) + ["absent"],
            sorted(store.predicate_index) + ["absent"],
            sorted({t.object for t in store.triples}) + ["absent"],
        ]
        # each term constant (drawn from the store, absent, or a variable's
        # name) or one of three free variables: all eight forms, and every way
        # to repeat a variable; the form is given, not read from the text
        patterns = set()
        for _ in range(10):
            options = [
                [(rng.choice(pool), False), (rng.choice(names), False)]
                + [(name, True) for name in names]
                for pool in pools
            ]
            patterns.update(itertools.product(*options))
        for pat in sorted(patterns):
            terms, free = zip(*pat)
            assert _slot_matches(store, terms, free) == _generic_matches(store, terms, free), pat


@pytest.mark.parametrize("replicated, per_home", [
    ((), [(2, False, 8, 108), (2, False, 8, 108)]),
    ((1, 4), [(1, True, 8, 8), (2, False, 8, 108)]),
])
def test_star_legs_sharing_subject_and_predicate_are_examined_twice(replicated, per_home):
    # the probe memo keys a free object by its name, so the legs (a, p, ?x)
    # and (a, p, ?y) are two probes: each examines a's four triples, and
    # within a leg the rows that share a probe examine them once; figures
    # pinned from the dict-row pass
    store = _store(("a", "p", "x1", False), ("a", "p", "x2", True), ("a", "q", "y", True),
                   ("b", "p", "z", False), ("a", "p", "b", False))
    plan = PartitionPlan(fragment_of=(0, 1, 0, 1, 1), node_of_fragment=(0, 1), m=2,
                         replicated=replicated)
    q = QueryPattern("star", (TriplePattern("a", "p", "?x"), TriplePattern("a", "p", "?y")))
    reference = evaluate_centralized(store, q).bindings
    assert len(reference) == 9
    for home, expected in enumerate(per_home):
        result = evaluate_distributed(store, plan, q, home)
        assert result.bindings == reference
        m = result.metrics
        assert (m.nodes_touched, m.locally_answered, m.triples_scanned, m.qet_proxy) == expected


@pytest.mark.parametrize("text, q, expected", [
    # the first hop binds ?h1 to the resource <?x>; the second hop must look
    # up that subject, not bind a variable named ?x
    ('<a> <p> <?x> .\n<?x> <q> "v" .\n',
     QueryPattern("linear", (TriplePattern("a", "p", "?h1"), TriplePattern("?h1", "q", "?h2"))),
     {(("?h1", "?x"), ("?h2", "v"))}),
    # ?v is bound to <?o>, so the third probe looks for the object <?o> and
    # must not reuse the second probe, whose text is the same
    ("<a> <q> <?o> .\n<a> <p> <b> .\n",
     QueryPattern("star", (TriplePattern("a", "q", "?v"), TriplePattern("a", "p", "?o"),
                           TriplePattern("a", "p", "?v"))),
     set()),
])
def test_bound_values_that_look_like_variables_are_constants(text, q, expected):
    store = parse_ntriples(text)
    reference = evaluate_centralized(store, q).bindings
    assert reference == expected
    for plan in (round_robin_triple_plan(store, 2), round_robin_triple_plan(store, 1)):
        for home in range(plan.m):
            assert evaluate_distributed(store, plan, q, home).bindings == reference


def test_distributed_route_binds_no_triple_on_common_shapes(monkeypatch):
    # the reference stays independent: only it runs the generic matcher
    calls = []

    def counted(*args):
        calls.append(args)
        return bind(*args)

    bind = query_module._bind
    monkeypatch.setattr(query_module, "_bind", counted)
    store = generate_sensor_graph(23, 8, 10)
    workload = generate_workload(store, 4, (6, 6, 0, 6))
    assert {q.shape for q in workload} == {"linear", "star", "snowflake"}
    for plan in (grown_plan(store, 3, 3), round_robin_triple_plan(store, 3)):
        inc_report(store, plan, workload)
    assert calls == []
    for q in workload:
        evaluate_centralized(store, q)
    assert calls


EDGE_STORE = _store(
    ("s1", "t", "nan", True), ("s2", "t", "inf", True), ("s3", "t", "-inf", True),
    ("s4", "t", " 7 ", True), ("s5", "t", "1_0", True), ("s6", "t", "hot", True),
    ("s7", "t", "7", True), ("s7", "t", "7", False),  # a literal/resource twin
    ("5", "t", "5", False), ("s8", "t", "-3.5", True), ("s1", "u", "2", True),
)
EDGE_PLAN = PartitionPlan(
    fragment_of=(0, 0, 0, 1, 1, 1, 2, 2, 1, 0, 0),
    node_of_fragment=(0, 1, 2),
    m=3,
    replicated=(6,),
)
# (nodes_touched, locally_answered, triples_scanned, qet_proxy) at homes 0, 1 and 2
SPLIT = (3, False, 10, 210)
LOCAL = (1, True, 5, 5)


@pytest.mark.parametrize("pattern, low, high, per_home", [
    (("?s", "t", "?v"), 0.0, 100.0, [SPLIT, LOCAL, SPLIT]),
    (("?s", "t", "?v"), -math.inf, math.inf, [SPLIT, SPLIT, SPLIT]),
    (("?s", "t", "?v"), 7.0, 7.0, [SPLIT, LOCAL, SPLIT]),
    (("?s", "t", "?v"), -10.0, 5.0, [SPLIT, SPLIT, SPLIT]),
    (("?s", "t", "?v"), math.inf, math.inf, [LOCAL, SPLIT, SPLIT]),
    (("?s", "t", "?v"), -math.inf, -math.inf, [LOCAL, SPLIT, SPLIT]),
    (("?s", "t", "?v"), 10.0, 10.0, [SPLIT, LOCAL, SPLIT]),
    (("?v", "t", "?s"), 0.0, 100.0, [SPLIT, LOCAL, SPLIT]),
    (("?s", "u", "?v"), 0.0, 5.0, [(1, True, 1, 1), (1, False, 1, 1), (1, False, 1, 1)]),
    (("?s", "zz", "?v"), 0.0, 5.0, [(1, True, 0, 0)] * 3),
    # the generic path: a constant subject, a repeated variable, a constant
    # object, a variable predicate
    (("s7", "t", "?v"), 7.0, 7.0, [(1, True, 1, 1), (1, True, 1, 1), (1, True, 2, 2)]),
    (("s4", "t", "?v"), 0.0, 100.0, [(1, False, 1, 1), (1, True, 1, 1), (1, False, 1, 1)]),
    (("?x", "t", "?x"), 0.0, 10.0, [(1, False, 10, 10), (1, True, 5, 5), (1, False, 10, 10)]),
    (("?s", "t", "7"), 0.0, 10.0, [LOCAL, LOCAL, (1, True, 2, 2)]),
    (("?s", "t", "hot"), 0.0, 10.0, [LOCAL, LOCAL, (1, True, 2, 2)]),
    (("?s", "?p", "?v"), 0.0, 5.0, [(3, False, 11, 211)] * 3),
])
def test_range_edge_cases_match_reference(pattern, low, high, per_home):
    """Objects float() reads oddly or not at all, and every range form; the
    metrics are pinned from the row-by-row filter the index slice replaced."""
    q = QueryPattern("range", (TriplePattern(*pattern),), RangeFilter(pattern[1], low, high))
    reference = evaluate_centralized(EDGE_STORE, q).bindings
    for home, expected in enumerate(per_home):
        result = evaluate_distributed(EDGE_STORE, EDGE_PLAN, q, home)
        assert result.bindings == reference
        m = result.metrics
        assert (m.nodes_touched, m.locally_answered, m.triples_scanned, m.qet_proxy) == expected


def test_range_edge_case_bindings():
    def rows(s, p, o, low, high):
        q = QueryPattern("range", (TriplePattern(s, p, o),), RangeFilter(p, low, high))
        return _rows(evaluate_distributed(EDGE_STORE, EDGE_PLAN, q, 0))

    assert rows("?s", "t", "?v", -math.inf, math.inf) == [
        {"?s": "5", "?v": "5"}, {"?s": "s2", "?v": "inf"}, {"?s": "s3", "?v": "-inf"},
        {"?s": "s4", "?v": " 7 "}, {"?s": "s5", "?v": "1_0"}, {"?s": "s7", "?v": "7"},
        {"?s": "s8", "?v": "-3.5"},
    ]
    assert rows("?v", "t", "?s", 7.0, 7.0) == [{"?s": " 7 ", "?v": "s4"}, {"?s": "7", "?v": "s7"}]
    assert rows("?x", "t", "?x", 0.0, 10.0) == [{"?x": "5"}]
    assert rows("?s", "t", "hot", 0.0, 10.0) == []


def _random_plan(rng, store, k, m):
    """A plan with no structure: random fragments, placement and replicas."""
    return PartitionPlan(
        fragment_of=tuple(rng.randrange(k) for _ in range(store.n)),
        node_of_fragment=tuple(rng.randrange(m) for _ in range(k)),
        m=m,
        replicated=tuple(sorted(rng.sample(range(store.n), rng.randint(0, store.n // 3)))),
    )


def test_home_metrics_match_a_pass_over_the_home_data_alone():
    # oracle: a home's own pass is a whole evaluation of the sub-store of
    # the triples it can see, on a one-node cluster
    rng = random.Random(29)
    for _ in range(6):
        store = random_store(rng, rng.randint(40, 250))
        grown = grown_plan(store, min(4, len(store.subject_index)), 3)
        _, replicated_plan = replicate(grown, compute_centrality(store), rng.uniform(0.3, 1.0), store)
        plans = [grown, replicated_plan, round_robin_triple_plan(store, 3)]
        plans += [_random_plan(rng, store, rng.randint(1, 6), rng.randint(1, 4)) for _ in range(2)]
        workload = generate_workload(store, rng.randint(0, 999)) + _generic_queries(rng, store, 12)
        references = [evaluate_centralized(store, q).bindings for q in workload]
        for plan in plans:
            for home in range(plan.m):
                visible = plan.visible_positions(home)
                sub = TripleStore([t for pos, t in enumerate(store.triples) if visible[pos]])
                one_node = PartitionPlan((0,) * sub.n, (0,), 1)
                for q, reference in zip(workload, references):
                    metrics = evaluate_distributed(store, plan, q, home).metrics
                    local = evaluate_centralized(sub, q).bindings == reference
                    assert metrics.locally_answered == local
                    own = evaluate_distributed(sub, one_node, q, 0).metrics.triples_scanned
                    if local:
                        assert metrics.triples_scanned == own
                    else:
                        assert metrics.triples_scanned >= own


def _range_queries(rng, store):
    """Range scans of each predicate, and of an absent one, whose bounds give
    full, one-value, empty and infinite slices, with both variable orders."""
    queries = []
    for p in [*store.predicate_index, "absent"]:
        values = []
        for t in store.triples:
            if t.predicate == p:
                try:
                    value = float(t.object)
                except ValueError:
                    continue
                if not math.isnan(value):
                    values.append(value)
        picks = values or [0.0]
        v = rng.choice(picks)
        low, high = sorted(rng.choice(picks) for _ in range(2))
        inf = math.inf
        for bounds in ((-inf, inf), (v, v), (low, high), (v + 0.25, v + 0.25),
                       (max(picks) + 1, inf), (-inf, -inf), (inf, inf), (-inf, v), (v, inf)):
            s, o = rng.choice((("?s", "?value"), ("?z", "?a")))
            queries.append(QueryPattern("range", (TriplePattern(s, p, o),), RangeFilter(p, *bounds)))
    return queries


def _best(outcomes):
    return min(outcomes, key=lambda o: (o.nodes_touched, not o.locally_answered, o.home_node))


def test_range_scans_match_a_row_by_row_oracle():
    rng = random.Random(41)
    for _ in range(200):
        store = numeric_store(rng)
        plan = _random_plan(rng, store, rng.randint(1, 6), rng.randint(1, 6))
        queries = _range_queries(rng, store)
        expected = [[range_oracle(store, plan, q, home) for home in range(plan.m)] for q in queries]
        for home in range(plan.m):
            report = inc_report(store, plan, queries, policy=home)
            assert report.outcomes == [per_home[home][1] for per_home in expected]
            for q, per_home in zip(queries, expected):
                assert evaluate_distributed(store, plan, q, home) == QueryResult(*per_home[home])
        best = inc_report(store, plan, queries, policy="best").outcomes
        assert best == [_best([outcome for _, outcome in per_home]) for per_home in expected]


def test_range_summary_follows_the_store_and_the_plan():
    # one plan over two stores of equal size: the rows in [1, 2] are on
    # node 0 in the first store and on node 1 in the second
    plan = PartitionPlan((0, 0, 1, 1), (0, 1), 2)
    text = plan.to_json()
    first = _store(("a", "v", "1"), ("b", "v", "2"), ("c", "v", "3"), ("d", "v", "4"))
    second = _store(("a", "v", "4"), ("b", "v", "3"), ("c", "v", "2"), ("d", "v", "1"))
    q = QueryPattern("range", (TriplePattern("?s", "v", "?o"),), RangeFilter("v", 1.0, 2.0))
    homes = []
    for store in (first, second, first, second):
        expected = [range_oracle(store, plan, q, home) for home in range(2)]
        (outcome,) = inc_report(store, plan, [q], policy="best").outcomes
        assert outcome == _best([o for _, o in expected])
        homes.append(outcome.home_node)
        for home in range(2):
            assert evaluate_distributed(store, plan, q, home) == QueryResult(*expected[home])
    assert homes == [0, 1, 0, 1]
    # a copy with every position replicated is local everywhere
    copy = replace(plan, replicated=(0, 1, 2, 3))
    for home in range(2):
        outcome = evaluate_distributed(first, copy, q, home).metrics
        assert outcome == range_oracle(first, copy, q, home)[1]
        assert outcome.locally_answered
    # the cache is no part of the plan's value or its file
    again = PartitionPlan.from_json(text)
    assert plan.to_json() == text
    assert again == plan and plan == again and hash(again) == hash(plan)
    assert PartitionPlan.from_json(plan.to_json()) == plan


def test_one_cluster_pass_per_query_whatever_the_node_count(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[1])
        return propagate(*args)

    propagate = query_module._propagate_eval
    monkeypatch.setattr(query_module, "_propagate_eval", counted)
    store = generate_sensor_graph(19, 6, 8)
    workload = generate_workload(store, 6)
    for m in (1, 2, 4):
        plan = round_robin_triple_plan(store, m)
        calls.clear()
        inc_report(store, plan, workload, policy="best")
        assert calls == workload
        calls.clear()
        evaluate_distributed(store, plan, workload[0], m - 1)
        assert calls == workload[:1]


def test_query_work_grows_linearly_with_the_fan_out():
    """The distributed pass counted, not timed: inc_report's bytecode count
    for a snowflake through one sensor fits that sensor's observation
    fan-out from 1x to 5x data. Only the fit is asserted, as absolute
    counts differ between Python versions."""
    sensor = "sensor/0000"
    q = QueryPattern("snowflake", (
        TriplePattern(sensor, MODEL_PREDICATE, "?a"),
        TriplePattern(sensor, LINK_PREDICATE, "?b"),
        TriplePattern("?b", "airTemperature", "?c"),
    ))
    fan_outs, work = [], []
    for scale in range(1, 6):
        store = generate_sensor_graph(7, 4, 30 * scale)
        plan = round_robin_triple_plan(store, 3)
        plan.seen_by  # built once per plan, not per query
        fan_outs.append(sum(store.triples[pos].predicate == LINK_PREDICATE
                            for pos in store.subject_index[sensor]))
        work.append(count_ops(inc_report, store, plan, [q]))
    assert max(fan_outs) >= 4 * min(fan_outs)
    r2 = statistics.correlation(fan_outs, work) ** 2
    assert r2 >= 0.999, (fan_outs, work)


def test_inc_report_picks_the_cheapest_home_per_query():
    store = generate_sensor_graph(17, 12, 14)
    grown = grown_plan(store, 4, 3)
    _, replicated_plan = replicate(grown, compute_centrality(store), 0.6, store)
    workload = generate_workload(store, 3)
    for plan in (replicated_plan, round_robin_triple_plan(store, 3)):
        runs = [("best", range(plan.m))]
        runs += [(home, (home,)) for home in range(plan.m)]
        for policy, homes in runs:
            report = inc_report(store, plan, workload, policy=policy)
            for q, outcome in zip(workload, report.outcomes):
                results = {h: evaluate_distributed(store, plan, q, h).metrics for h in homes}
                home = min(
                    homes,
                    key=lambda h: (results[h].nodes_touched, not results[h].locally_answered, h),
                )
                assert outcome.home_node == home
                assert outcome == results[home]


def test_star_on_master_subject_is_local_under_best_routing():
    store = generate_sensor_graph(3, 8, 10)
    masters = top_subjects(store, 3)
    plan = grown_plan(store, 3, 3)
    centre = masters[0]
    predicates = []
    for pos in store.subject_index[centre]:
        p = store.triples[pos].predicate
        if p not in predicates:
            predicates.append(p)
    q = QueryPattern(
        "star",
        tuple(TriplePattern(centre, p, f"?v{i}") for i, p in enumerate(predicates[:3])),
    )
    report = inc_report(store, plan, [q], policy="best")
    assert report.outcomes[0].locally_answered
    assert report.outcomes[0].nodes_touched == 1


def test_adding_replicas_never_reduces_locality():
    store = generate_sensor_graph(11, 10, 12)
    plan = grown_plan(store, 4, 3)
    table = compute_centrality(store)
    workload = generate_workload(store, 5)
    base = inc_report(store, plan, workload, policy="best").fraction_local
    _, replicated_plan = replicate(plan, table, 0.51, store)
    with_replicas = inc_report(store, replicated_plan, workload, policy="best").fraction_local
    _, full_plan = replicate(plan, table, min(table.values.values()), store)
    full = inc_report(store, full_plan, workload, policy="best").fraction_local
    assert base <= with_replicas <= full
    assert full == 1.0


def test_grown_plan_beats_round_robin_without_any_replicas():
    store = generate_sensor_graph(23, 20, 24)
    plan = grown_plan(store, 6, 3)
    rr = round_robin_triple_plan(store, 3)
    workload = generate_workload(store, 9)
    grown_local = inc_report(store, plan, workload, policy="best").fraction_local
    rr_local = inc_report(store, rr, workload, policy="best").fraction_local
    assert grown_local >= rr_local
    assert grown_local >= 0.5


def test_single_node_cluster_is_always_local():
    store = generate_sensor_graph(13, 6, 8)
    plan = grown_plan(store, 2, 1)
    report = inc_report(store, plan, generate_workload(store, 2), policy="best")
    assert report.fraction_local == 1.0
    assert report.mean_nodes_touched == 1.0


def test_fixed_policy_uses_requested_home():
    store = _store(("a", "p", "b"), ("b", "q", "c"))
    plan = _split_plan()
    report = inc_report(store, plan, [CHAIN], policy=1)
    assert report.outcomes[0].home_node == 1


def test_inc_report_means_follow_its_outcomes():
    store = _store(("a", "p", "b"), ("b", "q", "c"))
    report = inc_report(store, _split_plan(), [CHAIN], policy="best")
    star = QueryPattern("star", tuple(TriplePattern("a", p, f"?v{p}") for p in "pqr"))
    report = report._replace(
        workload=[star, CHAIN, star],
        outcomes=[QueryOutcome(0, 1, True, 4, 4), QueryOutcome(1, 3, False, 10, 210),
                  QueryOutcome(1, 1, True, 7, 7)],
    )
    assert report.fraction_local == 2 / 3
    assert report.mean_nodes_touched == 5 / 3
    assert report.mean_joins == 5 / 3
    assert report.mean_triples_scanned == 7.0
    assert report.mean_qet_proxy == 221 / 3


def _forbid_evaluation(monkeypatch):
    def fail(*args):
        raise AssertionError("query evaluated before its home node was checked")

    monkeypatch.setattr(query_module, "_propagate_eval", fail)


def test_inc_report_validates_inputs(monkeypatch):
    store = _store(("a", "p", "b"))
    plan = grown_plan(store, 1, 1)
    with pytest.raises(ValueError):
        inc_report(store, plan, [], policy="best")
    with pytest.raises(ValueError):
        inc_report(store, plan, [CHAIN], policy="nearest")
    _forbid_evaluation(monkeypatch)
    for bad in (plan.m, -1, True, 1.0, False, 0.0, "fixed"):  # False and 0.0 equal node 0
        with pytest.raises(ValueError):
            inc_report(store, plan, [CHAIN], policy=bad)


def test_home_node_bounds_checked(monkeypatch):
    store = _store(("a", "p", "b"))
    plan = grown_plan(store, 1, 2)
    _forbid_evaluation(monkeypatch)
    for bad in (5, plan.m, -1, True, 1.0):
        with pytest.raises(ValueError):
            evaluate_distributed(store, plan, CHAIN, home_node=bad)


# --- workload generation ----------------------------------------------------

def test_default_workload_histogram():
    store = generate_sensor_graph(1, 8, 10)
    workload = generate_workload(store, 4)
    assert len(workload) == 12
    shapes = [q.shape for q in workload]
    assert shapes.count("linear") == 3
    assert shapes.count("star") == 4
    assert shapes.count("range") == 3
    assert shapes.count("snowflake") == 2
    assert DEFAULT_WORKLOAD_COUNTS == (3, 4, 3, 2)


def test_workload_queries_are_non_empty_on_generated_data():
    store = generate_sensor_graph(2, 10, 15)
    for q in generate_workload(store, 8):
        assert evaluate_centralized(store, q).bindings, q


def test_workload_is_deterministic():
    store = generate_sensor_graph(5, 6, 9)
    assert generate_workload(store, 3) == generate_workload(store, 3)
    assert generate_workload(store, 3) != generate_workload(store, 4)


def _fallback_csv_store():
    """Literal objects only: no links and no numbers, so the linear, range
    and snowflake makers take their fallbacks."""
    mapping = CsvMapping("id", (("name", "name"), ("colour", "colour")))
    return ingest_csv("id,name,colour\na,alpha,red\nb,beta,\nc,gamma,blue\n", mapping).store


@pytest.mark.parametrize("make_store, pinned", [
    (lambda: generate_sensor_graph(3, 6, 4), "workload_sensor_graph.json"),
    (_fallback_csv_store, "workload_csv_fallbacks.json"),
])
def test_workload_text_is_pinned(make_store, pinned):
    """Every draw is pinned: a change to the lists the RNG draws from, or to
    their order, changes this text."""
    expected = (Path(__file__).parent / "data" / pinned).read_text()
    assert workload_to_json(generate_workload(make_store(), 1)) == expected


def _reports(store, seed, threshold, counts, renderers):
    """Each renderer's text of the ``counts`` workload's inc_report under a
    grown, a replicated and a round-robin plan, each with the best and the
    fixed policy."""
    workload = generate_workload(store, seed, counts)
    grown = grown_plan(store, 4, 3)
    _, replicated_plan = replicate(grown, compute_centrality(store), threshold, store)
    plans = (("grown", grown), ("replicated", replicated_plan),
             ("round-robin", round_robin_triple_plan(store, 3)))
    parts = []
    for name, plan in plans:
        for label, policy in (("best", "best"), ("fixed", plan.m - 1)):
            report = inc_report(store, plan, workload, policy=policy)
            parts.append(f"# {name} plan, {label} policy\n")
            parts.extend(render(report) for render in renderers)
    return "".join(parts)


@pytest.mark.parametrize("make_store, seed, threshold, pinned", [
    (lambda: generate_sensor_graph(3, 8, 12), 1, 0.6, "range_reports_sensor_graph.txt"),
    (lambda: random_store(random.Random(41), 400), 2, 0.75, "range_reports_random_store.txt"),
])
def test_range_outcomes_are_pinned(make_store, seed, threshold, pinned):
    """Range queries' outcomes, pinned from the row-by-row range filter."""
    expected = (Path(__file__).parent / "data" / pinned).read_text()
    assert _reports(make_store(), seed, threshold, (0, 0, 40, 0), (inc_report_csv,)) == expected


@pytest.mark.parametrize("make_store, seed, threshold, pinned", [
    (lambda: generate_sensor_graph(3, 8, 12), 1, 0.6, "default_reports_sensor_graph.txt"),
    (lambda: random_store(random.Random(41), 400), 2, 0.75, "default_reports_random_store.txt"),
])
def test_default_mix_report_text_is_pinned(make_store, seed, threshold, pinned):
    """The CSV and the table of the default four-shape mix, byte for byte."""
    expected = (Path(__file__).parent / "data" / pinned).read_text()
    renderers = (inc_report_csv, inc_report_table)
    assert _reports(make_store(), seed, threshold, DEFAULT_WORKLOAD_COUNTS, renderers) == expected


def test_workload_joins_equal_patterns_minus_one():
    store = generate_sensor_graph(6, 8, 10)
    plan = grown_plan(store, 3, 3)
    workload = generate_workload(store, 1)
    rows = inc_report_csv(inc_report(store, plan, workload)).splitlines()
    header = rows[0].split(",")
    for q, row in zip(workload, rows[1:], strict=True):
        joins = int(row.split(",")[header.index("joins")])
        assert joins == len(q.patterns) - 1
        if q.shape == "range":
            assert joins == 0
        assert evaluate_centralized(store, q).metrics is None


def test_zero_counts_give_empty_workload():
    store = generate_sensor_graph(1, 3, 4)
    assert generate_workload(store, 1, (0, 0, 0, 0)) == []


def test_workload_rejects_bad_inputs():
    store = generate_sensor_graph(1, 3, 4)
    with pytest.raises(ValueError):
        generate_workload(TripleStore([]), 1)
    with pytest.raises(ValueError):
        generate_workload(store, 1, (1, 2))
    with pytest.raises(ValueError):
        generate_workload(store, 1, (1, -1, 0, 0))


def test_workload_json_round_trip():
    store = generate_sensor_graph(9, 6, 8)
    workload = generate_workload(store, 12)
    text = workload_to_json(workload)
    assert workload_from_json(text) == workload
