"""Span recording around the library's public functions, from outside it.

A :class:`Tracer` patches each traced function where its callers look it up
(the defining module, or the class for ``PartitionPlan`` methods), so calls
made by the benchmark and calls the library makes internally, such as
``inc_report`` calling ``evaluate_distributed``, are both recorded. Nothing
in ``src/`` changes, and with no tracer installed the functions are the
originals, so an untraced run pays nothing.

A span is ``[name, start, end, parent, request]``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``request`` the identifier the
benchmark set for the operation in progress, shared by every span of one
layout build or one query. Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager
from importlib import import_module

# (module, attribute or "Class.method", span name)
TRACED = [
    ("tripleshard.store", "parse_ntriples", "store.parse_ntriples"),
    ("tripleshard.store", "ingest_csv", "store.ingest_csv"),
    ("tripleshard.store", "serialize_ntriples", "store.serialize_ntriples"),
    ("tripleshard.partition", "top_subjects", "partition.top_subjects"),
    ("tripleshard.partition", "grow_fragments", "partition.grow_fragments"),
    ("tripleshard.allocate", "allocate", "allocate.allocate"),
    ("tripleshard.replicate", "compute_centrality", "replicate.compute_centrality"),
    ("tripleshard.replicate", "derive_threshold", "replicate.derive_threshold"),
    ("tripleshard.replicate", "replicate", "replicate.replicate"),
    ("tripleshard.plan", "build_plan", "plan.build_plan"),
    ("tripleshard.plan", "round_robin_triple_plan", "plan.round_robin_triple_plan"),
    ("tripleshard.plan", "PartitionPlan.validate", "plan.validate"),
    ("tripleshard.plan", "PartitionPlan.to_json", "plan.to_json"),
    ("tripleshard.plan", "PartitionPlan.visible_positions", "plan.visible_positions"),
    ("tripleshard.query", "generate_workload", "query.generate_workload"),
    ("tripleshard.query", "inc_report", "query.inc_report"),
    ("tripleshard.query", "evaluate_distributed", "query.evaluate_distributed"),
    ("tripleshard.query", "evaluate_centralized", "query.evaluate_centralized"),
]


def _owner(module: str, attr: str):
    owner = import_module(module)
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, name


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request: str | None = None
        self._stack: list[int] = []
        self._paused = False

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    @contextmanager
    def installed(self):
        """Patch every function in TRACED for the duration of the block."""
        saved = []
        try:
            for module, attr, name in TRACED:
                owner, attr_name = _owner(module, attr)
                original = owner.__dict__[attr_name]
                saved.append((owner, attr_name, original))
                setattr(owner, attr_name, self._wrap(name, original))
            yield self
        finally:
            for owner, attr_name, original in reversed(saved):
                setattr(owner, attr_name, original)

    @contextmanager
    def paused(self):
        """Record nothing inside the block (work that is not the workload's own)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def self_times(self) -> dict[str, list[float]]:
        """Seconds per call of each span name, minus the time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, list[float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out.setdefault(name, []).append(end - start - child_time[i])
        return out

    def durations(self, name: str) -> dict[str, float]:
        """Whole duration of each ``name`` span, keyed by its request."""
        return {req: end - start for n, start, end, _, req in self.spans if n == name}

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "request": request}
                ) + "\n")


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values, q: int) -> float:
    """The q-th percentile (1..99) by the inclusive method; the median of one value."""
    values = list(values)
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
