"""Command-line front end: generate, partition, allocate, replicate, evaluate,
pipeline, and scale verbs.

Configuration comes from an optional JSON file plus flag overrides; flags win.
All artifacts (triple file, plan, centrality table, workload, reports) land in
the chosen output locations, and repeated runs with the same configuration
write byte-identical plan files.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .allocate import allocate
from .generator import generate_sensor_graph
from .metrics import StageTimer
from .partition import grow_fragments, top_subjects
from .plan import PartitionPlan, build_plan
from .query import (
    DEFAULT_WORKLOAD_COUNTS,
    generate_workload,
    inc_report,
    inc_report_csv,
    inc_report_table,
    workload_from_json,
    workload_to_json,
)
from .replicate import centrality_csv, compute_centrality, derive_threshold, replicate
from .store import CsvMapping, TripleStore, ingest_csv, parse_ntriples, serialize_ntriples


@dataclass
class PipelineConfig:
    input_path: str | None = None
    csv_mapping: CsvMapping | None = None
    sensors: int = 50
    observations_per_sensor: int = 60
    k: int = 5
    nodes: int = 3
    threshold: float | None = None  # None = derive from the data
    strict_threshold: bool = False
    single_pass: bool = False
    seed: int = 7
    workload_counts: tuple[int, ...] = DEFAULT_WORKLOAD_COUNTS
    out_dir: str = "out"

    def validate(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")
        if self.nodes < 1:
            raise ValueError(f"node count must be at least 1, got {self.nodes}")
        if self.threshold is not None and not 0.0 < self.threshold <= 1.0:
            raise ValueError(f"threshold must lie in (0, 1], got {self.threshold}")
        if self.sensors < 0 or self.observations_per_sensor < 0:
            raise ValueError("generator counts must be non-negative")
        if len(self.workload_counts) != 4 or any(c < 0 for c in self.workload_counts):
            raise ValueError("workload_counts must be four non-negative integers")


def load_config_file(path: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    known = {f.name for f in fields(PipelineConfig)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"unknown config keys in {path}: {', '.join(unknown)}")
    return data


def build_config(args: argparse.Namespace) -> PipelineConfig:
    data = load_config_file(args.config) if getattr(args, "config", None) else {}
    mapping = data.pop("csv_mapping", None)
    if mapping is not None:
        mapping = CsvMapping(
            subject_column=mapping["subject_column"],
            properties=tuple((p, c) for p, c in mapping["properties"]),
            resource_columns=frozenset(mapping.get("resource_columns", ())),
        )
    if "workload_counts" in data:
        data["workload_counts"] = tuple(data["workload_counts"])
    config = replace(PipelineConfig(), csv_mapping=mapping, **data)

    overrides = {
        "input_path": getattr(args, "input", None),
        "sensors": getattr(args, "sensors", None),
        "observations_per_sensor": getattr(args, "observations", None),
        "k": getattr(args, "k", None),
        "nodes": getattr(args, "nodes", None),
        "threshold": getattr(args, "threshold", None),
        "strict_threshold": getattr(args, "strict_threshold", None),
        "single_pass": getattr(args, "single_pass", None),
        "seed": getattr(args, "seed", None),
        "out_dir": getattr(args, "out", None),
    }
    config = replace(
        config, **{name: value for name, value in overrides.items() if value is not None}
    )
    config.validate()
    return config


def load_store(config: PipelineConfig) -> TripleStore:
    """Read triples from the configured input, or generate them."""
    if config.input_path is None:
        return generate_sensor_graph(
            config.seed, config.sensors, config.observations_per_sensor
        )
    path = Path(config.input_path)
    text = path.read_text()
    if path.suffix.lower() == ".csv":
        if config.csv_mapping is None:
            raise ValueError(
                f"CSV input {path} needs a csv_mapping entry in the config file"
            )
        return ingest_csv(text, config.csv_mapping).store
    return parse_ntriples(text)


@dataclass
class PipelineOutcome:
    store: TripleStore
    masters: list[str]
    partition: object
    plan: PartitionPlan
    table: object
    threshold: float
    threshold_derived: bool
    decision: object
    workload: list
    report: object
    timer: StageTimer


def execute_pipeline(config: PipelineConfig) -> PipelineOutcome:
    """Run every stage in memory and return all intermediate products."""
    config.validate()
    timer = StageTimer()
    with timer.stage("ingest"):
        store = load_store(config)
    with timer.stage("partition"):
        masters = top_subjects(store, config.k)
        partition = grow_fragments(store, masters, single_pass=config.single_pass)
    with timer.stage("distribute"):
        allocation = allocate([f.size for f in partition.fragments], config.nodes)
        base_plan = build_plan(partition, allocation)
        table = compute_centrality(store)
        threshold = derive_threshold(table, store, masters, override=config.threshold)
        decision, plan = replicate(
            base_plan, table, threshold, store, strict=config.strict_threshold
        )
    with timer.stage("evaluate"):
        workload = generate_workload(store, config.seed, config.workload_counts)
        report = inc_report(store, plan, workload, policy="best")
    return PipelineOutcome(
        store=store,
        masters=masters,
        partition=partition,
        plan=plan,
        table=table,
        threshold=threshold,
        threshold_derived=config.threshold is None,
        decision=decision,
        workload=workload,
        report=report,
        timer=timer,
    )


def _report_text(config: PipelineConfig, outcome: PipelineOutcome) -> str:
    store = outcome.store
    loads = outcome.plan.node_loads()
    lines = [
        "pipeline report",
        f"triples {store.n}, distinct subjects {len(store.subject_index)}, "
        f"k {config.k}, nodes {config.nodes}, seed {config.seed}",
        "",
        "stage timings (ms)",
    ]
    for name, ms in outcome.timer.stages_ms.items():
        lines.append(f"  {name:<10} {ms:10.1f}")
    lines.append("")
    lines.append("fragments (id, master, size)")
    for f in outcome.partition.fragments:
        lines.append(f"  {f.id:>3}  {f.master_subject:<24} {f.size}")
    lines.append(f"orphan triples: {outcome.partition.orphan_count}")
    lines.append("")
    lines.append("node loads (id, fragments, triples)")
    for node_id, fids in enumerate(outcome.plan.node_fragments):
        lines.append(f"  {node_id:>3}  {list(fids)!r:<16} {loads[node_id]}")
    lines.append(f"load spread (max - min): {max(loads) - min(loads)}")
    lines.append("")
    source = "derived" if outcome.threshold_derived else "override"
    lines.append("replication")
    lines.append(f"  threshold {outcome.threshold:.4f} ({source})")
    lines.append(
        f"  predicates replicated: {len(outcome.decision.replicated_predicates)}"
        f" of {len(outcome.table.values)}"
    )
    lines.append(
        f"  triples replicated: {len(outcome.decision.replicated_positions)}"
        f" (level {outcome.decision.replication_level:.4f})"
    )
    lines.append("")
    lines.append(f"query workload ({len(outcome.workload)} queries, policy best)")
    lines.append(inc_report_table(outcome.report).rstrip("\n"))
    return "".join(line + "\n" for line in lines)


def _report_json(config: PipelineConfig, outcome: PipelineOutcome) -> str:
    report = outcome.report
    data = {
        "triples": outcome.store.n,
        "k": config.k,
        "nodes": config.nodes,
        "seed": config.seed,
        "stages_ms": outcome.timer.stages_ms,
        "fragments": [
            {"id": f.id, "master": f.master_subject, "size": f.size}
            for f in outcome.partition.fragments
        ],
        "orphanTriples": outcome.partition.orphan_count,
        "nodeLoads": outcome.plan.node_loads(),
        "replication": {
            "threshold": outcome.threshold,
            "derived": outcome.threshold_derived,
            "replicatedPredicates": sorted(outcome.decision.replicated_predicates),
            "replicatedTriples": len(outcome.decision.replicated_positions),
            "level": outcome.decision.replication_level,
        },
        "inc": {
            "fractionLocal": report.fraction_local,
            "meanNodesTouched": report.mean_nodes_touched,
            "meanJoins": report.mean_joins,
            "meanTriplesScanned": report.mean_triples_scanned,
            "meanQetProxy": report.mean_qet_proxy,
        },
    }
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def run_pipeline(config: PipelineConfig) -> PipelineOutcome:
    """Execute all stages and write every artifact into ``config.out_dir``."""
    outcome = execute_pipeline(config)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "triples.nt").write_text(serialize_ntriples(outcome.store))
    (out / "plan.json").write_text(outcome.plan.to_json())
    (out / "centrality.csv").write_text(centrality_csv(outcome.table))
    (out / "workload.json").write_text(workload_to_json(outcome.workload))
    (out / "inc_report.csv").write_text(inc_report_csv(outcome.report))
    (out / "report.json").write_text(_report_json(config, outcome))
    (out / "report.txt").write_text(_report_text(config, outcome))
    return outcome


SCALE_CSV_HEADER = (
    "scale,n,ingest_ms,partition_ms,distribute_ms,evaluate_ms,replicatedTriples,fractionLocal"
)


def run_scaling(
    config: PipelineConfig, scales: list[int], repeats: int = 1
) -> list[dict]:
    """Run the pipeline at each scale multiple of the observation volume.

    Only generated data can be scaled. With ``repeats`` above one, the scales
    run in that many rounds and each reports its median time per stage.
    Taking the scales in turn exposes all of them alike to a slow or fast
    spell of the machine, and the median ignores a lone outlier either way.
    The non-timing outputs are identical across repeats by determinism.
    """
    if config.input_path is not None:
        raise ValueError("scaling runs require generated data, not an input file")
    if not scales or any(s < 1 for s in scales):
        raise ValueError("scales must be positive integers")
    if repeats < 1:
        raise ValueError("repeats must be at least 1")

    rows: list[dict] = []
    samples: list[dict[str, list[float]]] = [{} for _ in scales]
    for round_index in range(repeats):
        for i, scale in enumerate(scales):
            scaled = replace(
                config,
                observations_per_sensor=config.observations_per_sensor * scale,
            )
            outcome = execute_pipeline(scaled)
            for name, ms in outcome.timer.stages_ms.items():
                samples[i].setdefault(f"{name}_ms", []).append(ms)
            if round_index == 0:
                rows.append(
                    {
                        "scale": scale,
                        "n": outcome.store.n,
                        "replicatedTriples": len(outcome.decision.replicated_positions),
                        "fractionLocal": outcome.report.fraction_local,
                    }
                )
    for row, times in zip(rows, samples):
        row.update({key: statistics.median(values) for key, values in times.items()})
    return rows


def scale_rows_csv(rows: list[dict]) -> str:
    lines = [SCALE_CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r['scale']},{r['n']},{r['ingest_ms']:.3f},{r['partition_ms']:.3f},"
            f"{r['distribute_ms']:.3f},{r['evaluate_ms']:.3f},"
            f"{r['replicatedTriples']},{r['fractionLocal']:.4f}"
        )
    return "".join(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# verb handlers

def cmd_generate(args: argparse.Namespace) -> int:
    config = build_config(args)
    store = generate_sensor_graph(
        config.seed, config.sensors, config.observations_per_sensor
    )
    out = Path(args.out or "triples.nt")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(serialize_ntriples(store))
    print(f"wrote {store.n} triples ({len(store.subject_index)} subjects) to {out}")
    return 0


def cmd_partition(args: argparse.Namespace) -> int:
    config = build_config(args)
    store = load_store(config)
    masters = top_subjects(store, config.k)
    result = grow_fragments(store, masters, single_pass=config.single_pass)
    data = {
        "k": result.k,
        "fragments": [
            {"id": f.id, "master": f.master_subject, "tripleRefs": sorted(f.positions)}
            for f in result.fragments
        ],
    }
    out = Path(args.out or "fragments.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    sizes = ", ".join(str(f.size) for f in result.fragments)
    print(f"partitioned {store.n} triples into {result.k} fragments (sizes {sizes}), "
          f"{result.orphan_count} orphan triples; wrote {out}")
    return 0


def _build_full_plan(config: PipelineConfig, store: TripleStore):
    masters = top_subjects(store, config.k)
    partition = grow_fragments(store, masters, single_pass=config.single_pass)
    allocation = allocate([f.size for f in partition.fragments], config.nodes)
    return masters, partition, allocation, build_plan(partition, allocation)


def cmd_allocate(args: argparse.Namespace) -> int:
    config = build_config(args)
    store = load_store(config)
    _, partition, allocation, plan = _build_full_plan(config, store)
    out = Path(args.out or "plan.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(plan.to_json())
    loads = ", ".join(str(n.load_triples) for n in allocation.nodes)
    print(f"allocated {partition.k} fragments onto {config.nodes} nodes "
          f"(loads {loads}); wrote {out}")
    return 0


def cmd_replicate(args: argparse.Namespace) -> int:
    config = build_config(args)
    store = load_store(config)
    masters, partition, allocation, base_plan = _build_full_plan(config, store)
    table = compute_centrality(store)
    threshold = derive_threshold(table, store, masters, override=config.threshold)
    decision, plan = replicate(
        base_plan, table, threshold, store, strict=config.strict_threshold
    )
    out = Path(args.out or "plan.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(plan.to_json())
    if args.centrality_report:
        report_path = Path(args.centrality_report)
        report_path.parent.mkdir(parents=True, exist_ok=True)
        report_path.write_text(centrality_csv(table))
    print(f"threshold {threshold:.4f}, replicated "
          f"{len(decision.replicated_positions)} triples "
          f"(level {decision.replication_level:.4f}); wrote {out}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = build_config(args)
    store = load_store(config)
    plan = PartitionPlan.from_json(Path(args.plan).read_text())
    plan.validate(store)
    if args.workload:
        workload = workload_from_json(Path(args.workload).read_text())
    else:
        workload = generate_workload(store, config.seed)
    report = inc_report(
        store, plan, workload, policy=args.policy, home_node=args.home
    )
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(inc_report_csv(report))
    print(inc_report_table(report), end="")
    return 0


def cmd_pipeline(args: argparse.Namespace) -> int:
    config = build_config(args)
    outcome = run_pipeline(config)
    print(_report_text(config, outcome), end="")
    print(f"artifacts written to {config.out_dir}")
    return 0


def cmd_scale(args: argparse.Namespace) -> int:
    config = build_config(args)
    scales = [int(s) for s in args.scales.split(",") if s.strip()]
    rows = run_scaling(config, scales, repeats=args.repeats)
    csv_text = scale_rows_csv(rows)
    out = Path(args.out or "scale.csv")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(csv_text)
    print(csv_text, end="")
    return 0


def _add_common(parser: argparse.ArgumentParser, with_partition: bool = True) -> None:
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--input", help="triple (.nt) or tabular (.csv) input file")
    parser.add_argument("--sensors", type=int, help="generator: number of sensors")
    parser.add_argument(
        "--observations", type=int, help="generator: observations per sensor"
    )
    parser.add_argument("--seed", type=int, help="deterministic seed")
    if with_partition:
        parser.add_argument("--k", type=int, help="number of fragments")
        parser.add_argument(
            "--single-pass",
            action="store_true",
            default=None,
            dest="single_pass",
            help="grow fragments with a single scoring pass instead of rounds",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tripleshard",
        description="Partition, place, replicate, and query-simulate a triple store.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("generate", help="write a synthetic sensor graph")
    _add_common(p, with_partition=False)
    p.add_argument("--out", help="output triple file (default triples.nt)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("partition", help="build fragments from an input store")
    _add_common(p)
    p.add_argument("--out", help="fragments JSON (default fragments.json)")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("allocate", help="partition and place fragments on nodes")
    _add_common(p)
    p.add_argument("--nodes", type=int, help="number of storage nodes")
    p.add_argument("--out", help="plan JSON (default plan.json)")
    p.set_defaults(func=cmd_allocate)

    p = sub.add_parser("replicate", help="build the full plan with replicas")
    _add_common(p)
    p.add_argument("--nodes", type=int, help="number of storage nodes")
    p.add_argument("--threshold", type=float, help="replication threshold in (0, 1]")
    p.add_argument(
        "--strict-threshold",
        action="store_true",
        default=None,
        dest="strict_threshold",
        help="replicate only predicates strictly above the threshold",
    )
    p.add_argument("--centrality-report", help="also dump the centrality table CSV here")
    p.add_argument("--out", help="plan JSON (default plan.json)")
    p.set_defaults(func=cmd_replicate)

    p = sub.add_parser("evaluate", help="run a workload against an existing plan")
    _add_common(p, with_partition=False)
    p.add_argument("--plan", required=True, help="plan JSON produced by replicate/pipeline")
    p.add_argument("--workload", help="workload JSON (default: generated from the store)")
    p.add_argument("--policy", choices=("best", "fixed"), default="best")
    p.add_argument("--home", type=int, default=0, help="home node for the fixed policy")
    p.add_argument("--out", help="write the per-query CSV here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("pipeline", help="run every stage and write all artifacts")
    _add_common(p)
    p.add_argument("--nodes", type=int, help="number of storage nodes")
    p.add_argument("--threshold", type=float, help="replication threshold in (0, 1]")
    p.add_argument(
        "--strict-threshold", action="store_true", default=None, dest="strict_threshold"
    )
    p.add_argument("--out", help="output directory (default out)")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("scale", help="re-run the pipeline at growing data volumes")
    _add_common(p)
    p.add_argument("--nodes", type=int, help="number of storage nodes")
    p.add_argument("--threshold", type=float, help="replication threshold in (0, 1]")
    p.add_argument("--scales", default="1,2,3,4,5", help="comma-separated multipliers")
    p.add_argument("--repeats", type=int, default=1, help="timing repeats per scale")
    p.add_argument("--out", help="scale CSV (default scale.csv)")
    p.set_defaults(func=cmd_scale)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surface configuration and I/O problems as exit codes
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
