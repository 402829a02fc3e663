"""Shared builders and independent oracles used across the test modules.

The oracles here are deliberately naive reimplementations (plain dict
counting, list scans) so the package code is checked against something that
cannot share its bugs.
"""

from __future__ import annotations

import random
import sys

from tripleshard.allocate import allocate
from tripleshard.partition import grow_fragments, top_subjects
from tripleshard.plan import PartitionPlan, build_plan
from tripleshard.query import QueryOutcome, QueryPattern
from tripleshard.store import Triple, TripleStore


def count_ops(fn, *args) -> int:
    """How many bytecode instructions ``fn(*args)`` runs, counted from
    ``sys.settrace`` opcode events: a work count no machine load can move.
    Work inside C calls (regex, ``sorted``, dict growth) is not counted."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        frame.f_trace_opcodes = True
        if event == "opcode":
            count += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return count


def grown_plan(store: TripleStore, k: int, m: int) -> PartitionPlan:
    """The k-fragment plan on m nodes, before replication."""
    partition = grow_fragments(store, top_subjects(store, k))
    return build_plan(partition, allocate([f.size for f in partition.fragments], m))


def random_store(rng: random.Random, n: int | None = None) -> TripleStore:
    """A random store whose resource objects often point back into the
    subject pool, so fragment growth has real structure to follow."""
    if n is None:
        n = rng.randint(50, 2000)
    n_subjects = max(2, n // rng.choice((3, 5, 8)))
    subjects = [f"s{i}" for i in range(n_subjects)]
    predicates = [f"p{i}" for i in range(rng.randint(2, 12))]
    triples = []
    for _ in range(n):
        s = rng.choice(subjects)
        p = rng.choice(predicates)
        roll = rng.random()
        if roll < 0.55:
            triples.append(Triple(s, p, rng.choice(subjects), False))
        elif roll < 0.75:
            triples.append(Triple(s, p, f"r{rng.randint(0, n_subjects)}", False))
        else:
            triples.append(Triple(s, p, f"{rng.uniform(0, 100):.1f}", True))
    return TripleStore(triples)


def brute_force_top_subjects(store: TripleStore, k: int) -> list[str]:
    counts: dict[str, int] = {}
    for t in store.triples:
        counts[t.subject] = counts.get(t.subject, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [s for s, _ in ranked[:k]]


def brute_force_fragments(
    store: TripleStore, masters: list[str]
) -> tuple[list[int], list[int], int]:
    """Reference growth: (fragment id per position, fragment sizes, orphan
    triples). Every score is recounted from the fragment's members."""
    groups: dict[str, list[int]] = {}
    for pos, t in enumerate(store.triples):
        groups.setdefault(t.subject, []).append(pos)
    members: list[list[int]] = [list(groups[m]) for m in masters]
    pending = [s for s in groups if s not in masters]

    def references(fid: int, subject: str) -> int:
        return sum(
            1 for pos in members[fid]
            if not store.triples[pos].object_is_literal and store.triples[pos].object == subject
        )

    placed = True
    while placed:
        placed = False
        for subject in list(pending):
            scores = [references(fid, subject) for fid in range(len(masters))]
            best = scores.index(max(scores))
            if scores[best] > 0:
                members[best].extend(groups[subject])
                pending.remove(subject)
                placed = True
    orphans = 0
    for subject in pending:
        smallest = min(range(len(masters)), key=lambda fid: len(members[fid]))
        members[smallest].extend(groups[subject])
        orphans += len(groups[subject])

    fragment_of = [0] * len(store.triples)
    for fid, positions in enumerate(members):
        for pos in positions:
            fragment_of[pos] = fid
    return fragment_of, [len(positions) for positions in members], orphans


def brute_force_subject_links(store: TripleStore) -> dict[str, list[int]]:
    """Reference links: subjects in order of their first triple, each with
    the positions, scanned in order, of its triples whose object is a
    resource naming another subject. Subjects with no link are left out."""
    subjects: list[str] = []
    for t in store.triples:
        if t.subject not in subjects:
            subjects.append(t.subject)
    links = {}
    for subject in subjects:
        positions = [
            pos for pos, t in enumerate(store.triples)
            if t.subject == subject and not t.object_is_literal
            and t.object != subject and t.object in subjects
        ]
        if positions:
            links[subject] = positions
    return links


def brute_force_centrality(store: TripleStore) -> dict[str, tuple[float, int, int]]:
    acc: dict[str, tuple[set, int]] = {}
    for t in store.triples:
        subjects, edges = acc.setdefault(t.predicate, (set(), 0))
        subjects.add(t.subject)
        acc[t.predicate] = (subjects, edges + 1)
    return {
        p: (len(subjects) / edges, len(subjects), edges)
        for p, (subjects, edges) in acc.items()
    }


def round_robin_loads(sizes: list[int], m: int) -> list[int]:
    """Reference placement: same descending order, nodes taken in rotation."""
    loads = [0] * m
    order = sorted(range(len(sizes)), key=lambda i: (-sizes[i], i))
    for slot, fragment_id in enumerate(order):
        loads[slot % m] += sizes[fragment_id]
    return loads


# objects float() reads as numbers, NaN, infinities, or not at all
RANGE_OBJECTS = (
    "0", "1", "1.0", "2.5", "-3", "7", " 7 ", "1e2", "1_0", "nan", "NaN", "inf", "-inf",
    "Infinity", "-Infinity", "hot", "x7", "s0",
)


def numeric_store(rng: random.Random, n: int | None = None) -> TripleStore:
    """A random store for range scans: objects mix numbers (many equal),
    NaN, infinities and text, and about one triple in five has a
    literal/resource twin, a triple that differs only in its literal flag."""
    if n is None:
        n = rng.randint(1, 60)
    subjects = [f"s{i}" for i in range(max(1, n // 3))]
    predicates = [f"p{i}" for i in range(rng.randint(1, 3))]
    triples = []
    for _ in range(n):
        if rng.random() < 0.5:
            obj = rng.choice(RANGE_OBJECTS)
        else:
            obj = str(rng.randint(-4, 4) / 2)
        t = Triple(rng.choice(subjects), rng.choice(predicates), obj, rng.random() < 0.7)
        triples.append(t)
        if rng.random() < 0.2:
            triples.append(t._replace(object_is_literal=not t.object_is_literal))
    return TripleStore(triples)


def range_oracle(
    store: TripleStore, plan: PartitionPlan, q: QueryPattern, home: int
) -> tuple[frozenset, QueryOutcome]:
    """Row by row, the bindings and cost of a range scan ``?s P ?o`` sent to
    ``home``: each in-range row ORs the nodes that hold its triple into its
    binding's reach, and the scan examines every triple of P."""
    s, p, o = q.patterns[0]
    f = q.range_filter
    replicated = set(plan.replicated)

    def nodes(pos: int) -> set[int]:
        if pos in replicated:
            return set(range(plan.m))
        return {plan.node_of_fragment[plan.fragment_of[pos]]}

    candidates = [pos for pos, t in enumerate(store.triples) if t.predicate == p]
    reach: dict[tuple, set[int]] = {}
    for pos in candidates:
        t = store.triples[pos]
        try:
            value = float(t.object)
        except ValueError:
            continue
        if f.low <= value <= f.high:
            binding = tuple(sorted({s: t.subject, o: t.object}.items()))
            reach[binding] = reach.get(binding, set()) | nodes(pos)
    local = all(home in r for r in reach.values())
    if local:
        touched = 1
        scanned = sum(home in nodes(pos) for pos in candidates)
    else:
        touched = len({home if home in nodes(pos) else min(nodes(pos)) for pos in candidates})
        scanned = len(candidates)
    outcome = QueryOutcome(home, touched, local, scanned)
    return frozenset(reach), outcome
