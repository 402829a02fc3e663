"""The paper's layout pipeline as one call: a store in, a replicated plan out.

Semantic-aware partitioning (rank subjects, grow one fragment per master),
load-balanced allocation (longest first onto the least loaded node), and
partial replication (every predicate at or above the centrality threshold).
"""

from __future__ import annotations

from typing import NamedTuple

from .allocate import allocate
from .metrics import StageTimer
from .partition import PartitionResult, grow_fragments, top_subjects
from .plan import PartitionPlan, build_plan
from .replicate import (
    CentralityTable,
    ReplicationDecision,
    compute_centrality,
    derive_threshold,
    replicate,
)
from .store import TripleStore


class Layout(NamedTuple):
    partition: PartitionResult
    table: CentralityTable
    decision: ReplicationDecision  # its threshold is the one applied
    plan: PartitionPlan  # with the replicated triples


def build_layout(
    store: TripleStore,
    k: int,
    m: int,
    threshold: float | None = None,
    timer: StageTimer | None = None,
) -> Layout:
    """Partition the store into k fragments, place them on m nodes and
    replicate; a threshold of None derives it from the data.

    With a ``timer``, the work is recorded as its ``partition`` stage
    (ranking and growth) and its ``distribute`` stage (the rest).
    """
    timer = timer or StageTimer()
    with timer.stage("partition"):
        masters = top_subjects(store, k)
        partition = grow_fragments(store, masters)
    with timer.stage("distribute"):
        plan = build_plan(partition, allocate([f.size for f in partition.fragments], m))
        table = compute_centrality(store)
        cutoff = derive_threshold(table, store, masters, override=threshold)
        decision, plan = replicate(plan, table, cutoff, store)
    return Layout(partition, table, decision, plan)
