#!/usr/bin/env python3
"""tripleshard benchmark: layout builds and distributed query serving.

Run from the repository root:

    python3 perfbench/run.py --workload layout_sensor --seed 1 --seconds 10 --trace 0

It imports the package from ``src/`` of the same checkout, makes every input
from ``--seed``, measures for ``--seconds`` in one process and one thread,
checks the outputs, and prints the metrics by name with their units. The last
line of standard output is one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Any failed check
makes the exit code 1; a checkout without ``src/tripleshard`` gives exit code
2 and no result.

    python3 perfbench/run.py --write-manifest   # rewrite BENCHMARK.json from spec.py
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spec  # noqa: E402
from tracing import Tracer, median, percentile  # noqa: E402

SPANS_DIR = os.path.join(HERE, "out")
TIME_UNITS = {"s", "ms"}
RATE_UNITS = {"1/s"}


def scale_to_reference(defs, values: dict, slowdown: float) -> dict:
    """Per-layer times divided by the run's slowdown against the reference,
    rates multiplied (end-to-end samples are scaled one by one as they are taken)."""
    scaled = dict(values)
    for m in defs:
        if m.unit in TIME_UNITS:
            scaled[m.name] = values[m.name] / slowdown
        elif m.unit in RATE_UNITS:
            scaled[m.name] = values[m.name] * slowdown
    return scaled


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w.name for w in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor; below 1 only for the self-test")
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json from spec.py and exit")
    args = parser.parse_args(argv)
    if not args.write_manifest and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0 or args.scale <= 0:
        parser.error("--seconds and --scale must be positive")
    return args


def layer_metrics(run, tracer, ingest_span: str) -> dict[str, float]:
    """Per-layer values from the spans: per-call self times, per-query call
    counts, whole-call p50 per query shape, and the workload's counts."""
    self_s = tracer.self_times()

    def per_call(name, scale=1.0, q=50):
        values = self_s.get(name, [])
        return (median(values) if q == 50 else percentile(values, q)) * scale

    queries = [r for r in tracer.durations("query.inc_report") if r in run.shapes]

    def per_query(name):
        return sum(1 for s in tracer.spans if s[0] == name and s[4] in run.shapes) / len(queries)

    inc_report = tracer.durations("query.inc_report")

    def shape_p50(shape):
        return median([d for r, d in inc_report.items() if run.shapes.get(r) == shape]) * 1000.0

    values = {
        "store.ingest_s": per_call(ingest_span),
        "partition.top_subjects_s": per_call("partition.top_subjects"),
        "partition.grow_fragments_s": per_call("partition.grow_fragments"),
        "allocate.allocate_s": per_call("allocate.allocate"),
        "replicate.compute_centrality_s": per_call("replicate.compute_centrality"),
        "replicate.derive_threshold_s": per_call("replicate.derive_threshold"),
        "replicate.replicate_s": per_call("replicate.replicate"),
        "plan.build_plan_s": per_call("plan.build_plan"),
        "plan.validate_s": per_call("plan.validate"),
        "plan.to_json_s": per_call("plan.to_json"),
        "plan.visible_positions_ms": per_call("plan.visible_positions", 1000.0),
        "plan.visible_positions_calls": per_query("plan.visible_positions"),
        "query.evaluate_distributed_p50_ms": per_call("query.evaluate_distributed", 1000.0),
        "query.evaluate_distributed_p95_ms": per_call("query.evaluate_distributed", 1000.0, 95),
        "query.evaluate_distributed_calls": per_query("query.evaluate_distributed"),
        "query.inc_report_self_ms": per_call("query.inc_report", 1000.0),
        "query.linear_p50_ms": shape_p50("linear"),
        "query.star_p50_ms": shape_p50("star"),
        "query.snowflake_p50_ms": shape_p50("snowflake"),
        "query.range_p50_ms": shape_p50("range"),
        "query.generate_workload_s": per_call("query.generate_workload"),
        "query.evaluate_centralized_ms": per_call("query.evaluate_centralized", 1000.0),
        "trace.overhead_pct": run.overhead_pct,
    }
    values.update(run.counts)
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            json.dump(spec.manifest(), fh, indent=2)
            fh.write("\n")
        return 0

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "tripleshard", "__init__.py")):
        print(f"benchmark: no tripleshard sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import workloads

    tracer = Tracer() if args.trace else None
    run = workloads.Run(args.seed, args.seconds, args.scale, tracer)
    body, ingest_span = workloads.WORKLOADS[args.workload]
    body(run)

    slowdown = run.slowdown()
    run.notes.append(f"slowdown {slowdown:.4f}: median of {len(run.reference_s)} reference calls "
                     f"over the nominal {workloads.REFERENCE_S * 1000:g} ms")
    if tracer is None:
        run.end_to_end["peak_rss_mb"] = workloads.peak_rss_mb()
        defs, values = spec.END_TO_END, run.end_to_end
    else:
        defs = spec.PER_LAYER
        values = scale_to_reference(defs, layer_metrics(run, tracer, ingest_span), slowdown)
        os.makedirs(SPANS_DIR, exist_ok=True)
        path = os.path.join(SPANS_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(path)
        run.notes.append(f"{len(tracer.spans)} spans written to {os.path.relpath(path, ROOT)}")

    failed = len(run.failures)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for note in run.notes:
        print(f"  {note}")
    for failure in run.failures:
        print(f"  FAILED: {failure}")
    print(f"  error_rate {failed / max(run.attempted, 1):.6f} ratio "
          f"({failed} failed of {run.attempted} checks)")
    for m in defs:
        print(f"  {m.name:<36} {values[m.name]:>16.6f} {m.unit}")
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in defs},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
