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
import reprlib
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import cycle, islice

from .allocate import Allocation
from .partition import PartitionResult
from .store import TripleStore, _entries, _integer, _list

PLAN_FORMAT_VERSION = 3

# the stored facts, in constructor order; with "version", the keys of the plan file
_FIELDS = ("fragment_of", "node_of_fragment", "m", "replicated")
_LISTS = tuple(name for name in _FIELDS if name != "m")


class PlanError(ValueError):
    """A plan that violates its structural guarantees."""


@dataclass(frozen=True)
class PartitionPlan:
    fragment_of: tuple[int, ...]  # fragment per position (length n)
    node_of_fragment: tuple[int, ...]  # node per fragment (length k)
    m: int
    replicated: tuple[int, ...] = ()  # sorted positions copied to every non-owner

    def __post_init__(self):
        """Raise PlanError naming the first stored fact that is malformed."""
        for name in _LISTS:
            object.__setattr__(self, name, _list(getattr(self, name), name, error=PlanError))
        m, replicated = _integer(self.m, "m", 1, error=PlanError), self.replicated
        for name, bound, source in (
            ("fragment_of", len(self.node_of_fragment), "len(node_of_fragment)"),
            ("node_of_fragment", m, "m"),
            ("replicated", len(self.fragment_of), "len(fragment_of)"),
        ):
            values = getattr(self, name)  # _integer's rule, in bulk over up to n values
            if values and (set(map(type, values)) != {int} or min(values) < 0 or max(values) >= bound):
                raise PlanError(f"{name} must hold integers in 0..{bound - 1}, below {source}")
        if not all(map(operator.lt, replicated, replicated[1:])):
            raise PlanError("replicated must be strictly increasing")

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
        return len(self.node_of_fragment)

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

    def store_cache(self, store: TripleStore) -> dict:
        """A dict for what the query engine derives from this plan and
        ``store``, kept on the plan while calls name the same store object
        and started afresh for another. It takes no part in ``==`` or the
        plan file, and a copy made with ``dataclasses.replace`` has its own."""
        cache = self.__dict__.get("_store_cache")
        if cache is None or cache[0] is not store:
            cache = self.__dict__["_store_cache"] = (store, {})
        return cache[1]

    def visible_positions(self, node_id: int) -> bytes:
        """Mask that is 1 at each position the node holds (owned or replica):
        test ``mask[pos]``, as ``pos in mask`` searches the byte values."""
        _integer(node_id, "node_id", 0, self.m - 1)
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
        if isinstance(data, dict) and data.get("version") != PLAN_FORMAT_VERSION:
            raise PlanError(
                f"plan file is not version {PLAN_FORMAT_VERSION}; regenerate it with "
                "'tripleshard pipeline'"
            )
        *facts, _ = _entries(data, "plan JSON", (*_FIELDS, "version"), error=PlanError)
        return cls(*facts)

    def validate(self, store: TripleStore) -> None:
        """Raise PlanError unless the plan covers as many triples as the
        store holds; the rest was checked when the plan was built."""
        _check_coverage(self, store)


def _check_coverage(plan: PartitionPlan, store: TripleStore) -> None:
    """Raise PlanError unless ``plan`` covers as many triples as ``store`` holds."""
    if len(plan.fragment_of) != store.n:
        raise PlanError(f"fragment_of covers {len(plan.fragment_of)} of {store.n} triples")


def build_plan(partition: PartitionResult, allocation: Allocation) -> PartitionPlan:
    """Combine a partition and the node of each of its fragments (as
    ``allocate`` returns them) into a plan with nothing replicated. A value
    that is not an ``Allocation``, or one that places another number of
    fragments than the partition holds, raises PlanError."""
    if not isinstance(allocation, Allocation):
        raise PlanError(f"allocation must be an Allocation, got {reprlib.repr(allocation)}")
    placed = _list(allocation.node_of_fragment, "node_of_fragment", error=PlanError)
    if len(placed) != len(partition.fragments):
        raise PlanError(f"allocation places {len(placed)} fragments, the partition holds "
                        f"{len(partition.fragments)}")
    return PartitionPlan(partition.fragment_of, *allocation)


def round_robin_triple_plan(store: TripleStore, m: int) -> PartitionPlan:
    """Baseline layout: triples dealt round-robin to m single-fragment nodes.

    Used as the comparison point for locality measurements; it ignores
    subject cohesion entirely.
    """
    return PartitionPlan(tuple(islice(cycle(range(m)), store.n)), tuple(range(m)), m)
