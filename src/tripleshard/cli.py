"""Command-line front end: generate, pipeline, evaluate and scale verbs.

``pipeline`` builds a store's layout, answers a query workload against it and
writes every artifact; ``evaluate`` replays a workload against its plan file,
and ``scale`` re-runs it at growing data volumes. Configuration comes from an
optional JSON file plus flag overrides; flags win. Repeated runs with the same
configuration write byte-identical plan files.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .generator import generate_sensor_graph
from .layout import Layout, build_layout
from .metrics import StageTimer
from .plan import PartitionPlan
from .query import (
    DEFAULT_WORKLOAD_COUNTS,
    IncReport,
    generate_workload,
    inc_report,
    inc_report_csv,
    inc_report_table,
    workload_from_json,
    workload_to_json,
)
from .replicate import _check_threshold, centrality_csv
from .store import CsvMapping, TripleStore, ingest_csv, parse_ntriples, serialize_ntriples


@dataclass(frozen=True)
class PipelineConfig:
    input_path: str | None = None
    csv_mapping: CsvMapping | None = None
    sensors: int = 50
    observations_per_sensor: int = 60
    k: int = 5
    nodes: int = 3
    threshold: float | None = None  # None = derive from the data
    seed: int = 7
    workload_counts: tuple[int, ...] = DEFAULT_WORKLOAD_COUNTS
    out_dir: str = "out"

    def __post_init__(self) -> None:
        """Check each field's type, naming its key, then its range. A
        ``csv_mapping`` object, as a config file holds it, becomes a
        ``CsvMapping``, which checks its values."""
        mapping = self.csv_mapping
        if isinstance(mapping, dict):
            unknown = sorted(set(mapping) - {"subject_column", "properties", "resource_columns"})
            if unknown:
                raise ValueError(f"unknown csv_mapping keys: {', '.join(map(repr, unknown))}")
            object.__setattr__(self, "csv_mapping", CsvMapping(
                mapping.get("subject_column"), mapping.get("properties"),
                mapping.get("resource_columns", ()),
            ))
        elif mapping is not None and not isinstance(mapping, CsvMapping):
            raise ValueError("csv_mapping must be an object with a string 'subject_column'")
        for name in ("sensors", "observations_per_sensor", "k", "nodes", "seed"):
            if type(getattr(self, name)) is not int:  # bool, float and str are rejected
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.threshold is not None and type(self.threshold) not in (int, float):
            raise ValueError(f"threshold must be a number or null, got {self.threshold!r}")
        if self.input_path is not None and not isinstance(self.input_path, str):
            raise ValueError(f"input_path must be a path string, got {self.input_path!r}")
        if not isinstance(self.out_dir, str):
            raise ValueError(f"out_dir must be a path string, got {self.out_dir!r}")
        counts = self.workload_counts
        if not (isinstance(counts, (list, tuple)) and len(counts) == 4
                and all(type(c) is int and c >= 0 for c in counts) and any(counts)):
            raise ValueError(
                "workload_counts must be a list of four non-negative integers, not all zero,"
                f" got {counts!r}"
            )
        object.__setattr__(self, "workload_counts", tuple(counts))
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")
        if self.nodes < 1:
            raise ValueError(f"node count must be at least 1, got {self.nodes}")
        if self.threshold is not None:
            _check_threshold(self.threshold)
        if self.sensors < 0 or self.observations_per_sensor < 0:
            raise ValueError("generator counts must be non-negative")


def _read_json(kind: str, path: str, parse=json.loads):
    """``parse`` of the file's text; text that is not JSON raises a
    ValueError naming the kind and path of the file."""
    try:
        return parse(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{kind} file {path} is not valid JSON: {exc}") from None


def build_config(args: argparse.Namespace) -> PipelineConfig:
    """The config file's entries, if one is given, under the flags' values."""
    path, data = getattr(args, "config", None), {}
    if path:
        data = _read_json("config", path)
        if not isinstance(data, dict):
            raise ValueError(f"config file {path} must hold a JSON object")
        unknown = sorted(set(data) - {f.name for f in fields(PipelineConfig)})
        if unknown:
            raise ValueError(f"unknown config keys in {path}: {', '.join(unknown)}")
    for field in fields(PipelineConfig):  # flags store under the field they set; they win
        value = getattr(args, field.name, None)
        if value is not None:
            data[field.name] = value
    return PipelineConfig(**data)


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
    layout: Layout
    report: IncReport
    timer: StageTimer


def execute_pipeline(config: PipelineConfig) -> PipelineOutcome:
    """Run every stage in memory and return all intermediate products."""
    timer = StageTimer()
    with timer.stage("ingest"):
        store = load_store(config)
    layout = build_layout(store, config.k, config.nodes, config.threshold, timer)
    with timer.stage("evaluate"):
        workload = generate_workload(store, config.seed, config.workload_counts)
        report = inc_report(store, layout.plan, workload)
    return PipelineOutcome(store, layout, report, timer)


def _report_data(config: PipelineConfig, outcome: PipelineOutcome) -> dict:
    """The figures of ``report.json``, which ``report.txt`` also reads."""
    report, layout = outcome.report, outcome.layout
    return {
        "triples": outcome.store.n,
        "k": config.k,
        "nodes": config.nodes,
        "seed": config.seed,
        "stages_ms": outcome.timer.stages_ms,
        "fragments": [
            {"id": f.id, "master": f.master_subject, "size": f.size}
            for f in layout.partition.fragments
        ],
        "orphanTriples": layout.partition.orphan_count,
        "nodeLoads": layout.plan.node_loads(),
        "replication": {
            "threshold": layout.decision.threshold,
            "derived": config.threshold is None,
            "replicatedPredicates": sorted(layout.decision.replicated_predicates),
            "replicatedTriples": len(layout.decision.replicated_positions),
            "level": layout.decision.replication_level,
        },
        "inc": {
            "fractionLocal": report.fraction_local,
            "meanNodesTouched": report.mean_nodes_touched,
            "meanJoins": report.mean_joins,
            "meanTriplesScanned": report.mean_triples_scanned,
            "meanQetProxy": report.mean_qet_proxy,
        },
    }


def _report_text(data: dict, outcome: PipelineOutcome) -> str:
    layout, loads, replication = outcome.layout, data["nodeLoads"], data["replication"]
    lines = [
        "pipeline report",
        f"triples {data['triples']}, distinct subjects {len(outcome.store.subject_index)}, "
        f"k {data['k']}, nodes {data['nodes']}, seed {data['seed']}",
        "",
        "stage timings (ms)",
    ]
    for name, ms in data["stages_ms"].items():
        lines.append(f"  {name:<10} {ms:10.1f}")
    lines.append("")
    lines.append("fragments (id, master, size)")
    for f in data["fragments"]:
        lines.append(f"  {f['id']:>3}  {f['master']:<24} {f['size']}")
    lines.append(f"orphan triples: {data['orphanTriples']}")
    lines.append("")
    lines.append("node loads (id, fragments, triples)")
    for node_id, load in enumerate(loads):
        fids = [fid for fid, node in enumerate(layout.plan.node_of_fragment) if node == node_id]
        lines.append(f"  {node_id:>3}  {fids!r:<16} {load}")
    lines.append(f"load spread (max - min): {max(loads) - min(loads)}")
    lines.append("")
    source = "derived" if replication["derived"] else "override"
    lines.append("replication")
    lines.append(f"  threshold {replication['threshold']:.4f} ({source})")
    lines.append(
        f"  predicates replicated: {len(replication['replicatedPredicates'])}"
        f" of {len(layout.table.values)}"
    )
    lines.append(
        f"  triples replicated: {replication['replicatedTriples']}"
        f" (level {replication['level']:.4f})"
    )
    lines.append("")
    lines.append(f"query workload ({len(outcome.report.workload)} queries, policy best)")
    lines.append(inc_report_table(outcome.report).rstrip("\n"))
    lines.append(f"mean QET proxy (meanQetProxy) {data['inc']['meanQetProxy']:.1f}")
    return "".join(line + "\n" for line in lines)


def run_pipeline(config: PipelineConfig) -> PipelineOutcome:
    """Execute all stages and write every artifact into ``config.out_dir``."""
    outcome = execute_pipeline(config)
    _write_artifacts(config, outcome)
    return outcome


def _write_artifacts(config: PipelineConfig, outcome: PipelineOutcome) -> str:
    """Write every artifact of ``outcome`` into ``config.out_dir``; returns
    the text of ``report.txt``."""
    data = _report_data(config, outcome)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "triples.nt").write_text(serialize_ntriples(outcome.store))
    (out / "plan.json").write_text(outcome.layout.plan.to_json())
    (out / "centrality.csv").write_text(centrality_csv(outcome.layout.table))
    (out / "workload.json").write_text(workload_to_json(outcome.report.workload))
    (out / "inc_report.csv").write_text(inc_report_csv(outcome.report))
    (out / "report.json").write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    text = _report_text(data, outcome)
    (out / "report.txt").write_text(text)
    return text


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
                        "replicatedTriples": len(outcome.layout.decision.replicated_positions),
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
    if config.input_path is not None:
        raise ValueError("generate writes generated data; remove input_path from the config")
    store = load_store(config)
    out = Path(args.out or "triples.nt")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(serialize_ntriples(store))
    print(f"wrote {store.n} triples ({len(store.subject_index)} subjects) to {out}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = build_config(args)
    store = load_store(config)
    plan = _read_json("plan", args.plan, PartitionPlan.from_json)
    plan.validate(store)
    if args.workload:
        workload = _read_json("workload", args.workload, workload_from_json)
    else:
        workload = generate_workload(store, config.seed, config.workload_counts)
    report = inc_report(store, plan, workload, policy="best" if args.home is None else args.home)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(inc_report_csv(report))
    print(inc_report_table(report), end="")
    return 0


def cmd_pipeline(args: argparse.Namespace) -> int:
    config = build_config(args)
    print(_write_artifacts(config, execute_pipeline(config)), end="")
    print(f"artifacts written to {config.out_dir}")
    return 0


def cmd_scale(args: argparse.Namespace) -> int:
    config = build_config(args)
    rows = run_scaling(config, args.scales, repeats=args.repeats)
    csv_text = scale_rows_csv(rows)
    out = Path(args.out or "scale.csv")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(csv_text)
    print(csv_text, end="")
    return 0


def _scales(text: str) -> list[int]:
    """The ``--scales`` list; anything but positive integers is an argparse
    error naming the flag."""
    try:
        scales = [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        scales = []
    if not scales or any(s < 1 for s in scales):
        raise argparse.ArgumentTypeError(
            f"must be comma-separated positive integers, got {text!r}"
        )
    return scales


def _add_common(
    parser: argparse.ArgumentParser, with_input: bool = True, with_layout: bool = True
) -> None:
    parser.add_argument("--config", help="JSON configuration file")
    if with_input:
        parser.add_argument(
            "--input", dest="input_path", help="triple (.nt) or tabular (.csv) input file"
        )
    parser.add_argument("--sensors", type=int, help="generator: number of sensors")
    parser.add_argument(
        "--observations", dest="observations_per_sensor", type=int,
        help="generator: observations per sensor",
    )
    parser.add_argument("--seed", type=int, help="deterministic seed")
    if with_layout:
        parser.add_argument("--k", type=int, help="number of fragments")
        parser.add_argument("--nodes", type=int, help="number of storage nodes")
        parser.add_argument(
            "--threshold", type=float, help="replication threshold in (0, 1]"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tripleshard",
        description="Partition, place, replicate, and query-simulate a triple store.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("generate", help="write a synthetic sensor graph")
    _add_common(p, with_input=False, with_layout=False)
    p.add_argument("--out", help="output triple file (default triples.nt)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", help="run a workload against an existing plan")
    _add_common(p, with_layout=False)
    p.add_argument("--plan", required=True, help="plan JSON written by pipeline")
    p.add_argument("--workload", help="workload JSON (default: generated from the store)")
    p.add_argument("--home", type=int, help="route every query to this node (default: best)")
    p.add_argument("--out", help="write the per-query CSV here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("pipeline", help="run every stage and write all artifacts")
    _add_common(p)
    p.add_argument("--out", dest="out_dir", help="output directory (default out)")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("scale", help="re-run the pipeline at growing data volumes")
    _add_common(p, with_input=False)
    p.add_argument("--scales", type=_scales, default="1,2,3,4,5", help="comma-separated multipliers")
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
