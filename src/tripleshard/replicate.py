"""Predicate degree centrality, replication threshold, and replica placement.

Centrality of a predicate is the number of distinct subjects using it divided
by the number of triples carrying it. A predicate used at most once per
subject scores exactly 1.0; heavy reuse by few subjects pushes the score
toward 0. Triples whose predicate scores at or above a threshold are copied
to every node that does not already own them, so frequently joined, widely
shared properties become answerable everywhere.

The table keeps each predicate's two counts and derives its score from them.
The decision keeps what was chosen; the replication level is read from the
plan, as its replicated triples over the store size.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass, replace
from itertools import chain

from .plan import PartitionPlan
from .store import TripleStore, _number, _subjects


@dataclass
class CentralityTable:
    counts: dict[str, tuple[int, int]]  # predicate -> (distinct subjects, edge count)

    @property
    def values(self) -> dict[str, float]:
        """Centrality per predicate: distinct subjects over edge count."""
        return {p: distinct / edges for p, (distinct, edges) in self.counts.items()}


@dataclass
class ReplicationDecision:
    threshold: float
    replicated_predicates: frozenset[str]
    replicated_positions: tuple[int, ...]  # sorted; the plan's ``replicated``


def compute_centrality(store: TripleStore) -> CentralityTable:
    """Degree centrality per predicate; requires a non-empty store."""
    if store.n == 0:
        raise ValueError("cannot compute predicate centrality of an empty store")
    triples = store.triples
    return CentralityTable({
        predicate: (len({triples[p].subject for p in positions}), len(positions))
        for predicate, positions in store.predicate_index.items()
    })


def _check_threshold(value: object) -> float:
    return _number(value, "threshold", "(0, 1]", lambda x: 0.0 < x <= 1.0)


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
    top = _subjects(store, top, "top")
    if override is not None:
        return _check_threshold(override)
    predicate_counts: Counter = Counter()
    for subject in top:
        for pos in store.subject_index[subject]:
            predicate_counts[store.triples[pos].predicate] += 1
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
    return ReplicationDecision(threshold, chosen, replicated), replace(plan, replicated=replicated)


def centrality_csv(table: CentralityTable) -> str:
    """CSV dump of the table, sorted by predicate for stable output."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("predicate", "distinctSubjects", "edgeCount", "centrality"))
    values = table.values
    for predicate in sorted(table.counts):
        distinct, edges = table.counts[predicate]
        writer.writerow((predicate, distinct, edges, f"{values[predicate]:.6f}"))
    return out.getvalue()
