"""The benchmark in ``perfbench/`` calls the library by name and keeps its own
copy of the layout sequence; these tests keep both in step with ``src/``.

``perfbench/`` is imported read-only, the way its own scripts import each
other: with its directory on ``sys.path``.
"""

import sys
from importlib import import_module
from pathlib import Path

import pytest

from tripleshard.layout import build_layout

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
tracing = import_module("tracing")
workloads = import_module("workloads")


def test_every_traced_name_resolves_where_the_tracer_patches_it():
    for module, attr, _ in tracing.TRACED:
        owner, name = tracing._owner(module, attr)
        assert name in owner.__dict__, f"{module}.{attr}"


def _sensor_store():
    return workloads.m_store.parse_ntriples(workloads.sensor_text(1, 10, 20))


def _linked_store():
    return workloads.m_store.ingest_csv(workloads.linked_csv(1, 400), workloads.LINKED_MAPPING).store


@pytest.mark.parametrize(
    "make_store, k, threshold",
    [(_sensor_store, 8, 0.65), (_linked_store, 16, None)],
    ids=["sensor-fixed-threshold", "linked-derived-threshold"],
)
def test_benchmark_layout_matches_build_layout(make_store, k, threshold):
    store = make_store()
    bench = workloads.semantic_layout(store, k, threshold)
    ours = build_layout(store, k, workloads.NODES, threshold)
    assert bench.plan_json == ours.plan.to_json()
    assert bench.partition.orphan_count == ours.partition.orphan_count
    assert bench.decision.replicated_positions == ours.decision.replicated_positions


@pytest.mark.parametrize("make_store, k, threshold", [
    (_sensor_store, 8, 0.65), (_linked_store, 16, None),
], ids=["sensor", "linked"])
def test_benchmark_layout_figures_match_build_layout(make_store, k, threshold):
    """The layout records' fields the benchmark reads give build_layout's figures."""
    store = make_store()
    semantic = workloads.semantic_layout(store, k, threshold)
    ours = build_layout(store, k, workloads.NODES, threshold)
    copies = store.n + len(ours.plan.replicated) * (workloads.NODES - 1)
    for served, amplification in (
        (semantic, copies / store.n), (workloads.round_robin_layout(store), 1.0),
    ):
        run = workloads.Run(seed=1, seconds=1.0, scale=1.0, tracer=None)
        workloads.layout_shape_metrics(run, served)
        workloads.layout_counts(run, semantic, served)
        assert run.counts["partition.orphan_triples"] == ours.partition.orphan_count
        assert run.counts["replicate.replicated_triples"] == len(ours.plan.replicated)
        assert run.end_to_end["storage_amplification"] == amplification


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("make_layout", [
    lambda store: workloads.semantic_layout(store, workloads.SENSOR_K, workloads.SENSOR_THRESHOLD),
    workloads.round_robin_layout,
], ids=["semantic", "round-robin"])
def test_benchmark_query_path_runs_on_the_library(make_layout, traced):
    """The query workloads' served loop, metrics and checks on a small store,
    so a library change that breaks a read the benchmark makes fails here."""
    store = _sensor_store()
    queries = workloads.query_stream(store, 1, 1)
    assert len(queries) == sum(workloads.BLOCK_COUNTS) == 12
    assert {q.shape for q in queries} == {"linear", "star", "range", "snowflake"}
    layout = make_layout(store)
    run = workloads.Run(seed=1, seconds=1.0, scale=1.0,
                        tracer=tracing.Tracer() if traced else None)
    outcomes, latencies = workloads.serve(run, layout, queries, len(queries), None)
    assert len(outcomes) == len(latencies) == len(queries)
    workloads.query_metrics(run, queries, outcomes, latencies, len(queries))
    workloads.layout_shape_metrics(run, layout)
    with run.traced():
        workloads.check_layout(run, layout)
        workloads.check_bindings(run, layout, queries, outcomes)
    assert run.failures == []
    assert run.attempted == 14
