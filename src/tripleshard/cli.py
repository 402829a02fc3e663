"""Command-line front end: generate, pipeline, evaluate and scale verbs.

``pipeline`` builds a store's layout, answers a query workload against it,
writes every artifact and prints the ``report.txt`` it wrote; ``evaluate``
replays a workload against its plan file, and ``scale`` re-runs it at growing
data volumes. Configuration comes from an optional JSON file plus flag
overrides; flags win. Repeated runs with the same configuration write
byte-identical plan files.
"""

from __future__ import annotations

import argparse
import json
import reprlib
import statistics
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .generator import generate_sensor_graph
from .layout import Layout, StageTimer, build_layout
from .plan import PartitionPlan
from .query import (
    DEFAULT_WORKLOAD_COUNTS,
    IncReport,
    _workload_counts,
    generate_workload,
    inc_report,
    inc_report_csv,
    inc_report_table,
    workload_from_json,
    workload_to_json,
)
from .replicate import _check_threshold, centrality_csv
from .store import (CsvMapping, TripleStore, _entries, _integer, _list, ingest_csv, parse_ntriples,
                    serialize_ntriples)


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
        """Check each field, naming its key. A ``csv_mapping`` object, as a
        config file holds it, becomes a ``CsvMapping``, which checks its
        values."""
        mapping = self.csv_mapping
        if mapping is not None and not isinstance(mapping, CsvMapping):
            keys = [field.name for field in fields(CsvMapping)]
            _entries(mapping, "csv_mapping", keys, optional=("resource_columns",))
            object.__setattr__(self, "csv_mapping", CsvMapping(**mapping))
        lows = {"sensors": 0, "observations_per_sensor": 0, "k": 1, "nodes": 1, "seed": None}
        for name, low in lows.items():
            _integer(getattr(self, name), name, low)
        if self.input_path is not None and not isinstance(self.input_path, str):
            raise ValueError(f"input_path must be a path string, got {reprlib.repr(self.input_path)}")
        if not isinstance(self.out_dir, str):
            raise ValueError(f"out_dir must be a path string, got {reprlib.repr(self.out_dir)}")
        counts = _workload_counts(self.workload_counts, "workload_counts")
        if not any(counts):
            raise ValueError(f"workload_counts must not be all zero, got {reprlib.repr(self.workload_counts)}")
        object.__setattr__(self, "workload_counts", counts)
        if self.threshold is not None:
            _check_threshold(self.threshold)


def _read_text(kind: str, path: str | Path) -> str:
    """The file's text, read as UTF-8 with a leading byte-order mark dropped;
    bytes that are not UTF-8 raise a ValueError naming the kind and path of
    the file."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{kind} file {path} is not UTF-8 text: {exc}") from None


def _read_json(kind: str, path: str, parse=json.loads):
    """``parse`` of the file's text; text that is not JSON raises a
    ValueError naming the kind and path of the file."""
    text = _read_text(kind, path)
    try:
        return parse(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{kind} file {path} is not valid JSON: {exc}") from None


def build_config(args: argparse.Namespace) -> PipelineConfig:
    """The config file's entries, if one is given, under the flags' values."""
    path, data = getattr(args, "config", None), {}
    names = [field.name for field in fields(PipelineConfig)]
    if path:
        data = _read_json("config", path)
        _entries(data, f"config file {path}", names, optional=names)
    for name in names:  # flags store under the field they set; they win
        value = getattr(args, name, None)
        if value is not None:
            data[name] = value
    return PipelineConfig(**data)


def load_store(config: PipelineConfig) -> TripleStore:
    """Read triples from the configured input, or generate them."""
    if config.input_path is None:
        return generate_sensor_graph(
            config.seed, config.sensors, config.observations_per_sensor
        )
    path = Path(config.input_path)
    text = _read_text("input", path)
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
    stages_ms: dict[str, float]  # CPU time per stage, as the timer read it


def execute_pipeline(config: PipelineConfig) -> PipelineOutcome:
    """Run every stage in memory and return all intermediate products."""
    timer = StageTimer()
    with timer.stage("ingest"):
        store = load_store(config)
    layout = build_layout(store, config.k, config.nodes, config.threshold, timer)
    with timer.stage("evaluate"):
        workload = generate_workload(store, config.seed, config.workload_counts)
        report = inc_report(store, layout.plan, workload)
    return PipelineOutcome(store, layout, report, timer.stages_ms)


def _report_data(config: PipelineConfig, outcome: PipelineOutcome) -> dict:
    """The figures of ``report.json``, which ``report.txt`` also reads."""
    report, layout = outcome.report, outcome.layout
    return {
        "triples": outcome.store.n,
        "k": config.k,
        "nodes": config.nodes,
        "seed": config.seed,
        "stages_ms": outcome.stages_ms,
        "fragments": [
            {"id": fid, "master": f.master_subject, "size": f.size}
            for fid, f in enumerate(layout.partition.fragments)
        ],
        "orphanTriples": layout.partition.orphan_count,
        "nodeLoads": layout.plan.node_loads(),
        "replication": {
            "threshold": layout.decision.threshold,
            "derived": config.threshold is None,
            "replicatedPredicates": sorted(layout.decision.replicated_predicates),
            "replicatedTriples": len(layout.plan.replicated),
            "level": len(layout.plan.replicated) / outcome.store.n,
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
        f" of {len(layout.table.counts)}"
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


def _write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to the file as UTF-8, creating its directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def run_pipeline(config: PipelineConfig) -> PipelineOutcome:
    """Execute all stages and write every artifact into ``config.out_dir``."""
    outcome = execute_pipeline(config)
    data = _report_data(config, outcome)
    artifacts = {
        "triples.nt": serialize_ntriples(outcome.store),
        "plan.json": outcome.layout.plan.to_json(),
        "centrality.csv": centrality_csv(outcome.layout.table),
        "workload.json": workload_to_json(outcome.report.workload),
        "inc_report.csv": inc_report_csv(outcome.report),
        "report.json": json.dumps(data, indent=2, sort_keys=True) + "\n",
        "report.txt": _report_text(data, outcome),
    }
    for name, content in artifacts.items():
        _write_text(Path(config.out_dir) / name, content)
    return outcome


SCALE_CSV_COLUMNS = {  # the scale CSV's columns, in order, with the format of their values
    "scale": "{}", "n": "{}", "ingest_ms": "{:.3f}", "partition_ms": "{:.3f}", "distribute_ms": "{:.3f}",
    "evaluate_ms": "{:.3f}", "replicatedTriples": "{}", "fractionLocal": "{:.4f}",
}


def _check_scales(scales: object) -> list[int]:
    """``scales`` if it is a non-empty list or tuple of integers of at least 1."""
    if not _list(scales, "scales"):
        raise ValueError(f"scales must be a non-empty list, got {reprlib.repr(scales)}")
    return [_integer(scale, f"scales[{i}]", 1) for i, scale in enumerate(scales)]


def run_scaling(
    config: PipelineConfig, scales: list[int], repeats: int = 1
) -> list[dict]:
    """Run the pipeline at each scale multiple of the observation volume;
    one row per scale.

    Only generated data can be scaled. With ``repeats`` above one, the scales
    run in that many rounds and each row reports its median time per stage.
    Taking the scales in turn exposes all of them alike to a slow or fast
    spell of the machine, and the median ignores a lone outlier either way.
    Every round sets the row's other figures again; they are identical
    across rounds by determinism.
    """
    if config.input_path is not None:
        raise ValueError("scaling runs require generated data, not an input file")
    _integer(repeats, "repeats", 1)
    rows = [{"scale": scale} for scale in _check_scales(scales)]
    for _ in range(repeats):
        for row in rows:
            observations = config.observations_per_sensor * row["scale"]
            outcome = execute_pipeline(replace(config, observations_per_sensor=observations))
            row.update(n=outcome.store.n, replicatedTriples=len(outcome.layout.plan.replicated),
                       fractionLocal=outcome.report.fraction_local)
            for name, ms in outcome.stages_ms.items():
                row.setdefault(f"{name}_ms", []).append(ms)
    for row in rows:
        row.update({key: statistics.median(row[key]) for key in row if key.endswith("_ms")})
    return rows


def scale_rows_csv(rows: list[dict]) -> str:
    lines = [",".join(SCALE_CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(fmt.format(row[key]) for key, fmt in SCALE_CSV_COLUMNS.items()))
    return "".join(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# verb handlers

def cmd_generate(args: argparse.Namespace) -> int:
    config = build_config(args)
    if config.input_path is not None:
        raise ValueError("generate writes generated data; remove input_path from the config")
    store = load_store(config)
    out = Path(args.out or "triples.nt")
    _write_text(out, serialize_ntriples(store))
    print(f"wrote {store.n} triples ({len(store.subject_index)} subjects) to {out}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = build_config(args)
    store = load_store(config)
    plan = _read_json("plan", args.plan, PartitionPlan.from_json)
    if args.workload:
        workload = _read_json("workload", args.workload, workload_from_json)
    else:
        workload = generate_workload(store, config.seed, config.workload_counts)
    report = inc_report(store, plan, workload, policy="best" if args.home is None else args.home)
    if args.out:
        _write_text(args.out, inc_report_csv(report))
    print(inc_report_table(report), end="")
    return 0


def cmd_pipeline(args: argparse.Namespace) -> int:
    config = build_config(args)
    run_pipeline(config)
    print(_read_text("report", Path(config.out_dir) / "report.txt"), end="")
    print(f"artifacts written to {config.out_dir}")
    return 0


def cmd_scale(args: argparse.Namespace) -> int:
    config = build_config(args)
    rows = run_scaling(config, args.scales, repeats=args.repeats)
    csv_text = scale_rows_csv(rows)
    _write_text(args.out or "scale.csv", csv_text)
    print(csv_text, end="")
    return 0


def _scales(text: str) -> list[int]:
    """The ``--scales`` list, checked as ``run_scaling`` checks it; a bad
    entry is an argparse error naming the flag."""
    entries = [s.strip() for s in text.split(",") if s.strip()]
    try:  # an entry that is not written as an integer stays a string
        return _check_scales([int(s) if s.removeprefix("-").isdecimal() else s for s in entries])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


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
