"""The paper's layout pipeline as one call: a store in, a replicated plan out.

Semantic-aware partitioning (rank subjects, grow one fragment per master),
load-balanced allocation (longest first onto the least loaded node), and
partial replication (every predicate at or above the centrality threshold).
Each stage's CPU time can be recorded with a ``StageTimer``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import NamedTuple

from .allocate import allocate
from .partition import PartitionResult, grow_fragments, top_subjects
from .plan import PartitionPlan, build_plan
from .replicate import (
    CentralityTable,
    ReplicationDecision,
    compute_centrality,
    derive_threshold,
    replicate,
)
from .store import TripleStore, paused_collector


class StageTimer:
    """Collects the CPU time each named stage takes, in milliseconds.

    CPU time of this process, not wall-clock time, so that time the machine
    spends on other processes does not count against a stage. As in
    ``timeit``, the cyclic garbage collector is paused inside a stage, so a
    stage's time does not depend on how many unrelated objects the process
    holds.
    """

    def __init__(self):
        self.stages_ms: dict[str, float] = {}

    @contextmanager
    def stage(self, name: str):
        with paused_collector():
            start = time.process_time()
            try:
                yield
            finally:
                elapsed = time.process_time() - start
                self.stages_ms[name] = self.stages_ms.get(name, 0.0) + elapsed * 1000.0


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
