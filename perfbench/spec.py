"""What the benchmark measures: its workloads and metrics.

This module is the single source of the names, units and bounds in
``BENCHMARK.json``; ``python3 perfbench/run.py --write-manifest`` rewrites
that file from here and ``perfbench/selftest.py`` checks the two agree.

Every workload prints every end-to-end metric, so each one below is defined
for all four workloads (see README.md for how the layout workloads obtain
query numbers and the query workloads a layout time). Every per-layer metric
names the end-to-end metric it should move in ``moves``.
"""

from __future__ import annotations

from dataclasses import dataclass

RUN_SECONDS = 10
DEFAULT_SEED = 1
COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None  # end-to-end only: allowed worsening, share of median
    moves: str = ""  # per-layer only: the end-to-end metric this should move


WORKLOADS = [
    Workload(
        "layout_sensor",
        "Paper's data shape: ~200k-triple sensor N-Triples (200 sensors) to a validated "
        "plan JSON, k=8 m=4 t=0.65; the store parser dominates. Closed loop, 1 client, seed 1.",
    ),
    Workload(
        "layout_linked",
        "~200k triples from a shuffled 27.8k-row CSV with random row links, k=64 m=4, derived "
        "threshold; fragment growth and orphan fallback dominate. Closed loop, 1 client, seed 1.",
    ),
    Workload(
        "query_semantic",
        "~51k-triple sensor store, semantic plan k=8 m=4 t=0.65: >=204 mixed queries, each one "
        "inc_report call, nearly all local. Closed loop, 1 client, seed 1.",
    ),
    Workload(
        "query_roundrobin",
        "Same store and query stream over the paper's round-robin baseline (4 nodes): no query "
        "is local, so the remote query path runs. Closed loop, 1 client, seed 1.",
    ),
]

END_TO_END = [
    Metric("setup_s", "s", "lower", bound=0.25),
    Metric("layout_s", "s", "lower", bound=0.25),
    Metric("queries_per_s", "1/s", "higher", bound=0.25),
    Metric("query_p50_ms", "ms", "lower", bound=0.25),
    Metric("query_p95_ms", "ms", "lower", bound=0.25),
    Metric("peak_rss_mb", "MB", "lower", bound=0.1),
    Metric("mean_nodes_touched", "count", "lower", bound=0.1),
    Metric("storage_amplification", "ratio", "lower", bound=0.05),
]

_LAYOUT = "layout_s on layout_*; setup_s on query_*"
_QUERY = "query_p50_ms, query_p95_ms and queries_per_s"

PER_LAYER = [
    Metric("store.ingest_s", "s", "lower",
           moves="layout_s: parse_ntriples on layout_sensor, ingest_csv on layout_linked"),
    Metric("store.triples", "count", "higher", moves="input size: every time metric"),
    Metric("store.subjects", "count", "higher", moves="input size: every time metric"),
    Metric("partition.top_subjects_s", "s", "lower", moves=_LAYOUT + " (largest on layout_linked)"),
    Metric("partition.grow_fragments_s", "s", "lower", moves=_LAYOUT + " (largest on layout_linked)"),
    Metric("partition.orphan_triples", "count", "lower", moves="plan.load_imbalance; mean_nodes_touched"),
    Metric("allocate.allocate_s", "s", "lower", moves=_LAYOUT + " (expected negligible)"),
    Metric("replicate.compute_centrality_s", "s", "lower", moves=_LAYOUT),
    Metric("replicate.derive_threshold_s", "s", "lower", moves=_LAYOUT),
    Metric("replicate.replicate_s", "s", "lower", moves=_LAYOUT),
    Metric("replicate.replicated_triples", "count", "lower",
           moves="storage_amplification; mean_nodes_touched"),
    Metric("plan.build_plan_s", "s", "lower", moves=_LAYOUT),
    Metric("plan.validate_s", "s", "lower", moves=_LAYOUT),
    Metric("plan.to_json_s", "s", "lower", moves=_LAYOUT),
    Metric("plan.json_bytes", "count", "lower", moves="layout_s (plan.to_json_s)"),
    Metric("plan.load_imbalance", "ratio", "lower",
           moves="none directly: max over mean owned triples per node of the served plan"),
    Metric("plan.visible_positions_ms", "ms", "lower", moves="query_p50_ms on every workload"),
    Metric("plan.visible_positions_calls", "count/query", "lower", moves="query_p50_ms on every workload"),
    Metric("query.evaluate_distributed_p50_ms", "ms", "lower", moves=_QUERY),
    Metric("query.evaluate_distributed_p95_ms", "ms", "lower", moves="query_p95_ms"),
    Metric("query.evaluate_distributed_calls", "count/query", "lower", moves=_QUERY),
    Metric("query.inc_report_self_ms", "ms", "lower", moves=_QUERY),
    Metric("query.linear_p50_ms", "ms", "lower", moves="query_p50_ms"),
    Metric("query.star_p50_ms", "ms", "lower", moves="query_p50_ms"),
    Metric("query.snowflake_p50_ms", "ms", "lower", moves="query_p50_ms"),
    Metric("query.range_p50_ms", "ms", "lower", moves="query_p95_ms and queries_per_s on query_*"),
    Metric("query.triples_scanned_mean", "count", "lower", moves="queries_per_s; query.qet_proxy_mean"),
    Metric("query.qet_proxy_mean", "count", "lower",
           moves="none: the simulator's cost proxy (scans plus 100 per extra node) of each answer"),
    Metric("query.fraction_local", "ratio", "higher", moves="mean_nodes_touched"),
    Metric("query.repeat_share", "ratio", "lower",
           moves="none at this commit; the share a result cache could serve"),
    Metric("query.answered", "count", "higher",
           moves="base of fraction_local, repeat_share and the query means"),
    Metric("query.generate_workload_s", "s", "lower", moves="setup_s on query_*"),
    Metric("query.evaluate_centralized_ms", "ms", "lower",
           moves="none: the reference route the correctness check uses"),
    Metric("trace.overhead_pct", "%", "lower",
           moves="none: traced against untraced layout_s or query time in the same run"),
]


def manifest() -> dict:
    """The BENCHMARK.json document, in the key order the file uses."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
