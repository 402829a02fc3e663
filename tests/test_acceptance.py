"""Acceptance suite: one test per shipped criterion, each printing a
PASS line with the measured values (run with -s to see them)."""

import csv
import os
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from tripleshard.allocate import allocate
from tripleshard.cli import PipelineConfig, run_pipeline
from tripleshard.generator import generate_sensor_graph
from tripleshard.partition import grow_fragments, top_subjects
from tripleshard.plan import round_robin_triple_plan
from tripleshard.query import (
    evaluate_centralized,
    evaluate_distributed,
    generate_workload,
    inc_report,
)
from tripleshard.replicate import compute_centrality, derive_threshold, replicate
from tripleshard.store import TripleStore

from _helpers import (
    brute_force_centrality,
    brute_force_top_subjects,
    grown_plan,
    random_store,
    round_robin_loads,
)


def _ok(n, message):
    print(f"\ncriterion {n} PASS - {message}")


@pytest.fixture(scope="module")
def partition_runs():
    """200 randomized stores partitioned with k in 2..8, shared by the
    completeness and allocation criteria. Records the elapsed build time."""
    rng = random.Random(101)
    runs = []
    start = time.perf_counter()
    for i in range(200):
        if i % 10 == 9:
            store = generate_sensor_graph(rng.randrange(10_000), rng.randint(4, 8), rng.randint(5, 12))
        elif i % 40 == 39:
            store = random_store(rng, rng.randint(5_000, 10_000))
        else:
            store = random_store(rng, rng.randint(50, 2_000))
        k = rng.randint(2, min(8, len(store.subject_index)))
        result = grow_fragments(store, top_subjects(store, k))
        runs.append((store, result))
    elapsed = time.perf_counter() - start
    return runs, elapsed


def test_criterion_1_partition_completeness_and_cohesion(partition_runs):
    runs, elapsed = partition_runs
    assert len(runs) == 200
    for store, result in runs:
        assert store.n <= 10_000
        assert len(result.fragment_of) == store.n, "fragments must cover every triple exactly once"
        sizes = Counter({fid: f.size for fid, f in enumerate(result.fragments)})
        assert Counter(result.fragment_of) == sizes, "fragment sizes must count their triples"
        home: dict[str, int] = {}
        for pos, fid in enumerate(result.fragment_of):
            s = store.triples[pos].subject
            assert home.setdefault(s, fid) == fid, "subject split across fragments"
    assert elapsed < 60.0, f"partitioning 200 stores took {elapsed:.1f}s"
    _ok(1, f"200 stores complete and cohesive in {elapsed:.1f}s")


def test_criterion_2_ranking_matches_brute_force():
    rng = random.Random(103)
    mismatches = 0
    for _ in range(100):
        store = random_store(rng, rng.randint(30, 1_500))
        k = rng.randint(1, len(store.subject_index))
        if top_subjects(store, k) != brute_force_top_subjects(store, k):
            mismatches += 1
    assert mismatches == 0
    _ok(2, "100 stores, 0 ranking mismatches against the brute-force oracle")


def test_criterion_3_allocation_balance(partition_runs):
    runs, _ = partition_runs
    rng = random.Random(107)
    beats_rr = 0
    for store, result in runs:
        sizes = [f.size for f in result.fragments]
        m = rng.randint(2, 6)
        loads = [sum(sizes[fid] for fid in node) for node in allocate(sizes, m)]
        assert max(loads) - min(loads) <= max(sizes), "spread exceeds largest fragment"
        greedy_max = max(loads)
        rr_max = max(round_robin_loads(sizes, m))
        if greedy_max <= rr_max:
            beats_rr += 1
        assert greedy_max <= rr_max * 1.10, "greedy worse than round-robin by over 10%"
    share = beats_rr / len(runs)
    assert share >= 0.90
    _ok(3, f"spread bounded on all 200 runs; greedy <= round-robin on {share:.0%}")


def test_criterion_4_centrality_law():
    rng = random.Random(109)
    checked = 0
    for _ in range(100):
        store = random_store(rng, rng.randint(20, 1_000))
        table = compute_centrality(store)
        oracle = brute_force_centrality(store)
        for predicate, value in table.values.items():
            _, distinct, edges = oracle[predicate]
            assert 0.0 < value <= 1.0
            assert (value == 1.0) == (distinct == edges)
            assert value == pytest.approx(distinct / edges)
            checked += 1
    _ok(4, f"{checked} predicate centralities in (0,1], 1.0 exactly on distinct==edges")


def test_criterion_5_replication_monotone_and_linear():
    base = generate_sensor_graph(11, 30, 40)
    plan = round_robin_triple_plan(base, 1)
    table = compute_centrality(base)
    lower, _ = replicate(plan, table, 0.51, base)
    higher, _ = replicate(plan, table, 0.65, base)
    lower_level = len(lower.replicated_positions) / base.n
    higher_level = len(higher.replicated_positions) / base.n
    assert lower_level >= higher_level

    ns, counts = [], []
    for scale in range(1, 6):
        store = generate_sensor_graph(11, 30, 40 * scale)
        decision, _ = replicate(
            round_robin_triple_plan(store, 1), compute_centrality(store), 0.65, store
        )
        ns.append(store.n)
        counts.append(len(decision.replicated_positions))
    r2 = statistics.correlation(ns, counts) ** 2
    assert r2 >= 0.9, f"replica growth not linear: r2={r2:.3f}"
    _ok(
        5,
        f"level({0.51})={lower_level:.3f} >= "
        f"level({0.65})={higher_level:.3f}; replica growth r2={r2:.4f}",
    )


def test_criterion_6_distributed_equals_centralized():
    store = generate_sensor_graph(3, 12, 10)
    bare = grown_plan(store, 4, 3)
    table = compute_centrality(store)
    _, replicated = replicate(bare, table, 0.51, store)

    compared = 0
    for seed in range(50):
        for q in generate_workload(store, seed):
            reference = evaluate_centralized(store, q).bindings
            for plan in (bare, replicated):
                for home in range(plan.m):
                    result = evaluate_distributed(store, plan, q, home)
                    assert result.bindings == reference
                    compared += 1
    _ok(6, f"{compared} distributed evaluations matched the reference bindings")


def test_criterion_7_locality_beats_round_robin():
    store = generate_sensor_graph(11, 30, 40)
    masters = top_subjects(store, 6)
    bare = grown_plan(store, 6, 3)
    table = compute_centrality(store)
    threshold = derive_threshold(table, store, masters)
    _, plan = replicate(bare, table, threshold, store)

    rr_bare = round_robin_triple_plan(store, 3)
    _, rr_plan = replicate(rr_bare, table, threshold, store)

    workload = generate_workload(store, 11)

    def local(layout):
        return inc_report(store, layout, workload, policy="best").fraction_local

    ours, baseline = local(plan), local(rr_plan)
    assert ours >= baseline
    assert ours >= 0.5
    # the derived threshold replicates every triple of this graph, so placement
    # is compared strictly where it still decides locality: no replicas, t=0.65
    bare_ours, bare_baseline = local(bare), local(rr_bare)
    assert bare_ours > bare_baseline
    mid_ours = local(replicate(bare, table, 0.65, store)[1])
    mid_baseline = local(replicate(rr_bare, table, 0.65, store)[1])
    assert mid_ours > mid_baseline
    _ok(
        7,
        f"fraction local vs round-robin: derived threshold {threshold:.4f} "
        f"{ours:.3f} >= {baseline:.3f} and >= 0.5; no replicas {bare_ours:.3f} "
        f"> {bare_baseline:.3f}; t=0.65 {mid_ours:.3f} > {mid_baseline:.3f}",
    )


def test_criterion_8_stage_times_scale_linearly(tmp_path):
    """The ``scale`` verb runs in a fresh interpreter, so that the heap the
    rest of the suite leaves behind is not timed with it, and its CSV is
    fitted here."""
    out = tmp_path / "scale.csv"
    paths = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "tripleshard", "scale", "--sensors", "50", "--observations", "60",
         "--k", "5", "--nodes", "3", "--seed", "7", "--scales", "1,2,3,4,5", "--repeats", "7",
         "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    wall = time.perf_counter() - start
    assert done.returncode == 0, done.stderr
    rows = [{key: float(value) for key, value in row.items()}
            for row in csv.DictReader(out.read_text().splitlines())]
    ns = [r["n"] for r in rows]
    stages = ("ingest_ms", "partition_ms", "distribute_ms", "evaluate_ms")
    medians = "; ".join(
        f"{stage} " + ", ".join(f"{r[stage]:.1f}" for r in rows) for stage in stages
    )
    fits = {}
    for stage in stages:
        r2 = statistics.correlation(ns, [r[stage] for r in rows]) ** 2
        assert r2 >= 0.9, (
            f"{stage} not linear in n: r2={r2:.3f}; ns={ns}; per-scale medians (ms): {medians}"
        )
        fits[stage] = r2
    largest_run_ms = sum(rows[-1][stage] for stage in stages)
    assert largest_run_ms < 5 * 60 * 1000, f"5x run took {largest_run_ms:.0f}ms"
    summary = ", ".join(f"{k.removesuffix('_ms')} r2={v:.3f}" for k, v in fits.items())
    _ok(8, f"{summary}; 5x run {largest_run_ms / 1000:.1f}s (wall {wall:.1f}s)")


def test_criterion_9_pipeline_is_deterministic(tmp_path):
    config = dict(sensors=20, observations_per_sensor=25, k=5, nodes=3, seed=17)
    a = run_pipeline(PipelineConfig(out_dir=str(tmp_path / "a"), **config))
    b = run_pipeline(PipelineConfig(out_dir=str(tmp_path / "b"), **config))
    identical = []
    for name in ("plan.json", "centrality.csv", "workload.json", "inc_report.csv", "triples.nt"):
        left = (tmp_path / "a" / name).read_bytes()
        right = (tmp_path / "b" / name).read_bytes()
        assert left == right, f"{name} differs between identical runs"
        identical.append(name)
    assert a.layout.plan.to_json() == b.layout.plan.to_json()
    _ok(9, f"byte-identical artifacts across runs: {', '.join(identical)}")
