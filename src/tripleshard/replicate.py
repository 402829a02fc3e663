"""Predicate degree centrality, replication threshold, and replica placement.

Centrality of a predicate is the number of distinct subjects using it divided
by the number of triples carrying it. A predicate used at most once per
subject scores exactly 1.0; heavy reuse by few subjects pushes the score
toward 0. Triples whose predicate scores at or above a threshold are copied
to every node that does not already own them, so frequently joined, widely
shared properties become answerable everywhere.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass, replace
from itertools import chain

from .plan import PartitionPlan
from .store import TripleStore


@dataclass
class CentralityTable:
    values: dict[str, float]
    counts: dict[str, tuple[int, int]]  # predicate -> (distinct subjects, edge count)


@dataclass
class ReplicationDecision:
    threshold: float
    replicated_predicates: frozenset[str]
    replicated_positions: tuple[int, ...]  # sorted; the plan's ``replicated``
    replication_level: float  # replicated triples / store size


def compute_centrality(store: TripleStore) -> CentralityTable:
    """Degree centrality per predicate; requires a non-empty store."""
    if store.n == 0:
        raise ValueError("cannot compute predicate centrality of an empty store")
    values: dict[str, float] = {}
    counts: dict[str, tuple[int, int]] = {}
    for predicate, positions in store.predicate_index.items():
        distinct = len({store.triples[p].subject for p in positions})
        edges = len(positions)
        values[predicate] = distinct / edges
        counts[predicate] = (distinct, edges)
    return CentralityTable(values, counts)


def _check_threshold(value: float) -> float:
    if not 0.0 < value <= 1.0:
        raise ValueError(f"threshold must lie in (0, 1], got {value}")
    return value


def derive_threshold(
    table: CentralityTable,
    store: TripleStore,
    top: list[str],
    override: float | None = None,
) -> float:
    """Threshold = centrality of the most frequent predicate among the top
    subjects' triples (ties to the lexicographically smallest predicate),
    unless an explicit override is given.
    """
    if override is not None:
        return _check_threshold(override)
    if not top:
        raise ValueError("cannot derive a threshold from an empty subject list")
    predicate_counts: Counter = Counter()
    for subject in top:
        for pos in store.subject_index.get(subject, ()):
            predicate_counts[store.triples[pos].predicate] += 1
    if not predicate_counts:
        raise ValueError("top subjects have no triples; cannot derive a threshold")
    best = min(predicate_counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]
    return table.values[best]


def replicate(
    plan: PartitionPlan,
    table: CentralityTable,
    threshold: float,
    store: TripleStore,
) -> tuple[ReplicationDecision, PartitionPlan]:
    """Copy every qualifying triple to all nodes that do not own it.

    A triple qualifies when its predicate's centrality is at least the
    threshold. Returns the decision record and the plan with those triples
    replicated; the plan derives each node's replicas, so owned copies are
    never duplicated onto their own node.
    """
    _check_threshold(threshold)
    chosen = frozenset(p for p, c in table.values.items() if c >= threshold)
    # a position has one predicate, so the chosen index lists are disjoint
    replicated = tuple(sorted(chain.from_iterable(store.predicate_index[p] for p in chosen)))

    level = len(replicated) / store.n if store.n else 0.0
    decision = ReplicationDecision(threshold, chosen, replicated, level)
    return decision, replace(plan, replicated=replicated)


def centrality_csv(table: CentralityTable) -> str:
    """CSV dump of the table, sorted by predicate for stable output."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("predicate", "distinctSubjects", "edgeCount", "centrality"))
    for predicate in sorted(table.values):
        distinct, edges = table.counts[predicate]
        writer.writerow((predicate, distinct, edges, f"{table.values[predicate]:.6f}"))
    return out.getvalue()
