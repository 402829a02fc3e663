"""Deployment plan: fragments, their node placement, and the replicated set.

A plan is the durable artifact of the pipeline. Triple references are
positions into the canonical serialized triple file written alongside the
plan, so a plan plus that file fully describes the cluster layout.

A plan stores each fact once and derives the rest (owners, per-node replica
positions, loads) on first use; it is checked when built and cannot change
afterwards. So each triple sits in one fragment, each fragment on one node,
and no node replicates what it owns.
"""

from __future__ import annotations

import json
import operator
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import cycle, islice
from typing import Sequence

from .partition import PartitionResult
from .store import TripleStore

PLAN_FORMAT_VERSION = 2

# the stored facts, in constructor order; also the keys of the plan file
_FIELDS = ("fragment_masters", "fragment_of", "node_of_fragment", "m", "replicated")


class PlanError(ValueError):
    """A plan that violates its structural guarantees."""


def _check(facts: dict) -> None:
    """Raise PlanError naming the first stored fact that is malformed."""
    for name in ("fragment_masters", "fragment_of", "node_of_fragment", "replicated"):
        if not isinstance(facts[name], (list, tuple)):
            raise PlanError(f"{name} must be a list, got {type(facts[name]).__name__}")
    m, k, replicated = facts["m"], len(facts["fragment_masters"]), facts["replicated"]
    if type(m) is not int or m < 1:
        raise PlanError(f"m must be a positive integer, got {m!r}")
    if set(map(type, facts["fragment_masters"])) - {str}:
        raise PlanError("fragment_masters must hold strings")
    if len(facts["node_of_fragment"]) != k:
        raise PlanError(f"node_of_fragment must have one entry per fragment ({k})")
    for name, bound in (("fragment_of", k), ("node_of_fragment", m),
                        ("replicated", len(facts["fragment_of"]))):
        values = facts[name]  # ints only: bool and float are rejected too
        if values and (set(map(type, values)) != {int} or min(values) < 0 or max(values) >= bound):
            raise PlanError(f"{name} must hold integers in 0..{bound - 1}")
    if not all(map(operator.lt, replicated, replicated[1:])):
        raise PlanError("replicated must be strictly increasing")


@dataclass(frozen=True)
class PartitionPlan:
    fragment_masters: tuple[str, ...]  # master subject per fragment (length k)
    fragment_of: tuple[int, ...]  # fragment per position (length n)
    node_of_fragment: tuple[int, ...]  # node per fragment (length k)
    m: int
    replicated: tuple[int, ...] = ()  # sorted positions copied to every non-owner

    def __post_init__(self):
        _check({name: getattr(self, name) for name in _FIELDS})
        for name in ("fragment_masters", "fragment_of", "node_of_fragment", "replicated"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    @cached_property
    def replicas(self) -> tuple[tuple[int, ...], ...]:
        """Sorted replicated positions each node holds but does not own."""
        replica_owner = [self.owner_of(pos) for pos in self.replicated]
        return tuple(
            tuple([pos for pos, o in zip(self.replicated, replica_owner) if o != node])
            for node in range(self.m)
        )

    @property
    def k(self) -> int:
        return len(self.fragment_masters)

    def owner_of(self, position: int) -> int:
        return self.node_of_fragment[self.fragment_of[position]]

    @cached_property
    def seen_by(self) -> tuple[int, ...]:
        """Node bit mask per position: bit i is set when node i owns or replicates it."""
        bits = [1 << node for node in self.node_of_fragment]
        seen = list(map(bits.__getitem__, self.fragment_of))
        for pos in self.replicated:
            seen[pos] = (1 << self.m) - 1
        return tuple(seen)

    def visible_positions(self, node_id: int) -> bytes:
        """Mask that is 1 at each position the node holds (owned or replica):
        test ``mask[pos]``, as ``pos in mask`` searches the byte values."""
        if not 0 <= node_id < self.m:
            raise ValueError(f"node {node_id} outside 0..{self.m - 1}")
        return bytes(mask >> node_id & 1 for mask in self.seen_by)

    def node_loads(self) -> list[int]:
        """Triples each node owns: the sizes of its fragments."""
        loads = [0] * self.m
        for fid, size in Counter(self.fragment_of).items():
            loads[self.node_of_fragment[fid]] += size
        return loads

    def to_json(self) -> str:
        data = {name: getattr(self, name) for name in _FIELDS}
        data["version"] = PLAN_FORMAT_VERSION
        return json.dumps(data, separators=(",", ":"), sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "PartitionPlan":
        data = json.loads(text)
        if not isinstance(data, dict) or data.get("version") != PLAN_FORMAT_VERSION:
            raise PlanError(
                f"plan file is not version {PLAN_FORMAT_VERSION}; regenerate it with "
                "'tripleshard pipeline'"
            )
        missing = [name for name in _FIELDS if name not in data]
        if missing:
            raise PlanError(f"plan JSON missing required field: {', '.join(missing)}")
        return cls(**{name: data[name] for name in _FIELDS})

    def validate(self, store: TripleStore) -> None:
        """Raise PlanError unless the plan covers as many triples as the
        store holds; the rest was checked when the plan was built."""
        if len(self.fragment_of) != store.n:
            raise PlanError(f"fragment_of covers {len(self.fragment_of)} of {store.n} triples")


def build_plan(
    partition: PartitionResult, allocation: Sequence[Sequence[int]]
) -> PartitionPlan:
    """Combine a partition and the fragment ids of each node (as ``allocate``
    returns them) into a plan with nothing replicated."""
    node_of_fragment = [None] * len(partition.fragments)
    for node_id, fragment_ids in enumerate(allocation):
        for fid in fragment_ids:
            node_of_fragment[fid] = node_id
    return PartitionPlan(
        fragment_masters=[f.master_subject for f in partition.fragments],
        fragment_of=partition.fragment_of,
        node_of_fragment=node_of_fragment,
        m=len(allocation),
    )


def round_robin_triple_plan(store: TripleStore, m: int) -> PartitionPlan:
    """Baseline layout: triples dealt round-robin to m single-fragment nodes.

    Used as the comparison point for locality measurements; it ignores
    subject cohesion entirely.
    """
    return PartitionPlan(
        fragment_masters=[
            store.triples[node].subject if node < store.n else "" for node in range(m)
        ],
        fragment_of=tuple(islice(cycle(range(m)), store.n)),
        node_of_fragment=tuple(range(m)),
        m=m,
    )
