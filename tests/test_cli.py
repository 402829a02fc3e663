import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from tripleshard.cli import (
    PipelineConfig, build_config, build_parser, main, run_pipeline, run_scaling, scale_rows_csv,
)
from tripleshard.plan import PartitionPlan
from tripleshard.store import CsvMapping, parse_ntriples


def test_generate_writes_parseable_file(tmp_path, capsys):
    out = tmp_path / "g.nt"
    rc = main(["generate", "--sensors", "4", "--observations", "5",
               "--seed", "2", "--out", str(out)])
    assert rc == 0
    store = parse_ntriples(out.read_text())
    assert store.n > 0
    assert str(store.n) in capsys.readouterr().out


def test_generate_rejects_input(tmp_path, capsys):
    out = tmp_path / "g.nt"
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--input", str(tmp_path / "absent.nt"), "--out", str(out)])
    assert exc.value.code == 2
    assert "--input" in capsys.readouterr().err
    assert not out.exists()


def test_generate_rejects_config_input_path(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"input_path": str(tmp_path / "x.nt"), "sensors": 3}))
    out = tmp_path / "g.nt"
    assert main(["generate", "--config", str(config), "--out", str(out)]) == 2
    assert "input_path" in capsys.readouterr().err
    assert not out.exists()


def test_flags_set_only_their_own_config_fields():
    parser = build_parser()
    config = build_config(parser.parse_args([
        "pipeline", "--input", "t.nt", "--sensors", "3", "--observations", "4", "--seed", "5",
        "--k", "6", "--nodes", "7", "--threshold", "0.5", "--out", "run",
    ]))
    assert config == PipelineConfig(
        input_path="t.nt", sensors=3, observations_per_sensor=4, seed=5, k=6, nodes=7,
        threshold=0.5, out_dir="run",
    )
    # evaluate's --out names its CSV, not the pipeline's output directory
    config = build_config(parser.parse_args(["evaluate", "--plan", "p.json", "--out", "r.csv"]))
    assert config.out_dir == PipelineConfig().out_dir


def test_evaluate_verb_runs_saved_workload(tmp_path, capsys):
    triples = tmp_path / "t.nt"
    main(["generate", "--sensors", "6", "--observations", "8", "--seed", "4",
          "--out", str(triples)])
    run_dir = tmp_path / "run"
    main(["pipeline", "--input", str(triples), "--k", "3", "--nodes", "3",
          "--threshold", "0.65", "--seed", "4", "--out", str(run_dir)])
    capsys.readouterr()
    csv_out = tmp_path / "inc.csv"
    rc = main(["evaluate", "--input", str(triples), "--plan", str(run_dir / "plan.json"),
               "--workload", str(run_dir / "workload.json"),
               "--seed", "4", "--out", str(csv_out)])
    assert rc == 0
    assert "local fraction" in capsys.readouterr().out
    header = csv_out.read_text().splitlines()[0]
    assert header.startswith("query,shape,homeNode")


def test_evaluate_generates_the_configured_workload_counts(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "sensors": 6, "observations_per_sensor": 8, "k": 3, "nodes": 2, "seed": 5,
        "workload_counts": [1, 0, 0, 0],
    }))
    run_dir = tmp_path / "run"
    assert main(["pipeline", "--config", str(config), "--out", str(run_dir)]) == 0
    csv_out = tmp_path / "inc.csv"
    rc = main(["evaluate", "--config", str(config), "--plan", str(run_dir / "plan.json"),
               "--out", str(csv_out)])
    assert rc == 0
    assert csv_out.read_text() == (run_dir / "inc_report.csv").read_text()
    assert len(csv_out.read_text().splitlines()) == 2  # header and one query


def _evaluate_args(tmp_path):
    """Run a 3-node pipeline; return the evaluate arguments replaying its plan."""
    run_dir = tmp_path / "run"
    assert main(["pipeline", "--sensors", "6", "--observations", "8", "--k", "3",
                 "--nodes", "3", "--seed", "4", "--out", str(run_dir)]) == 0
    return ["evaluate", "--sensors", "6", "--observations", "8", "--seed", "4",
            "--plan", str(run_dir / "plan.json")]


def test_evaluate_home_routes_every_query_there(tmp_path):
    evaluate = _evaluate_args(tmp_path)
    csv_out = tmp_path / "inc.csv"
    assert main([*evaluate, "--home", "1", "--out", str(csv_out)]) == 0
    rows = [line.split(",") for line in csv_out.read_text().splitlines()[1:]]
    assert len(rows) == sum(PipelineConfig().workload_counts)
    assert {row[2] for row in rows} == {"1"}
    # without --home each query goes to its best node, as in the pipeline
    assert main([*evaluate, "--out", str(csv_out)]) == 0
    assert csv_out.read_text() == (tmp_path / "run" / "inc_report.csv").read_text()


def test_evaluate_rejects_an_out_of_range_home(tmp_path, capsys):
    evaluate = _evaluate_args(tmp_path)
    capsys.readouterr()
    for bad in ("3", "-1"):
        assert main([*evaluate, "--home", bad]) == 2
        assert capsys.readouterr().err == f"error: policy must be an integer in 0..2, got {bad}\n"
    with pytest.raises(SystemExit) as exc:  # the home alone picks the routing
        main([*evaluate, "--policy", "fixed"])
    assert exc.value.code == 2


@pytest.mark.parametrize("args, line", [
    (["pipeline", "--k", "0"], "k must be an integer of at least 1, got 0"),
    (["pipeline", "--nodes", "0"], "nodes must be an integer of at least 1, got 0"),
    (["generate", "--sensors", "-1"], "sensors must be an integer of at least 0, got -1"),
    (["pipeline", "--config", "counts.json"], "workload_counts[1] must be an integer of at least 0, got -1"),
    (["scale", "--repeats", "0"], "repeats must be an integer of at least 1, got 0"),
    (["evaluate", "--home", "9"], "policy must be an integer in 0..2, got 9"),
], ids=["pipeline-k", "pipeline-nodes", "generate-sensors", "config-workload_counts", "scale-repeats",
        "evaluate-home"])
def test_a_bad_integer_exits_2_in_the_one_wording(tmp_path, capsys, monkeypatch, args, line):
    if args[0] == "evaluate":
        args = _evaluate_args(tmp_path) + args[1:]
    monkeypatch.chdir(tmp_path)  # outputs land here, and counts.json is read from here
    Path("counts.json").write_text(json.dumps({"workload_counts": [1, -1, 0, 0]}))
    capsys.readouterr()
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {line}\n"
    assert {path.name for path in Path().iterdir()} <= {"counts.json", "run"}  # nothing written


@pytest.mark.parametrize("args, line", [
    (["pipeline", "--threshold", "0"], "threshold must be a number in (0, 1], got 0.0"),
    (["pipeline", "--config", "threshold.json"], "threshold must be a number in (0, 1], got True"),
    (["evaluate", "--workload", "workload.json", "--out", "inc.csv"], "workload JSON must be a list, got {}"),
], ids=["pipeline-threshold", "config-threshold", "evaluate-workload"])
def test_a_bad_number_or_list_exits_2_in_the_one_wording(tmp_path, capsys, monkeypatch, args, line):
    if args[0] == "evaluate":
        args = _evaluate_args(tmp_path) + args[1:]
    monkeypatch.chdir(tmp_path)  # outputs land here, and the JSON files are read from here
    inputs = {"threshold.json": json.dumps({"threshold": True}), "workload.json": "{}"}
    for name, text in inputs.items():
        Path(name).write_text(text)
    capsys.readouterr()
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {line}\n"
    assert {path.name for path in Path().iterdir()} <= {*inputs, "run"}  # nothing written


@pytest.mark.parametrize("kind, flag", [
    ("config", "--config"), ("plan", "--plan"), ("workload", "--workload"),
])
def test_a_file_that_is_not_json_is_named(tmp_path, capsys, kind, flag):
    evaluate = _evaluate_args(tmp_path)
    broken = tmp_path / f"{kind}.json"
    broken.write_text("")
    capsys.readouterr()
    assert main([*evaluate, flag, str(broken)]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: {kind} file {broken} is not valid JSON: "
                   "Expecting value: line 1 column 1 (char 0)\n")


@pytest.mark.parametrize("kind, fault", [
    (kind, fault) for kind in ("plan", "config", "csv_mapping", "query")
    for fault in ("not-an-object", "missing-key", "unknown-keys")
    if (kind, fault) != ("config", "missing-key")  # every config key is optional
])
def test_every_json_reader_words_a_faulty_object_the_same_way(tmp_path, capsys, kind, fault):
    evaluate = _evaluate_args(tmp_path)
    run_dir, edited = tmp_path / "run", tmp_path / "edited.json"
    # per kind: the flag naming the file, the file's text around the object,
    # the name errors give the object, a valid object and one of its required keys
    flag, around, where, valid, required = {
        "plan": ("--plan", "{}", "plan JSON",
                 json.loads((run_dir / "plan.json").read_text()), "replicated"),
        "config": ("--config", "{}", f"config file {edited}", {"seed": 4}, None),
        "csv_mapping": ("--config", '{{"csv_mapping": {}}}', "csv_mapping",
                        {"subject_column": "id", "properties": [["p", "t"]]}, "properties"),
        "query": ("--workload", "[{}]", "query 0: query",
                  json.loads((run_dir / "workload.json").read_text())[0], "type"),
    }[kind]
    value, tail = {
        "not-an-object": (list(valid), f"must be a JSON object, got {list(valid)!r}"),
        "missing-key": ({key: v for key, v in valid.items() if key != required},
                        f"has no {required!r} key"),
        "unknown-keys": ({**valid, "zeta": 1, "alpha": 2}, "has unknown keys: 'zeta', 'alpha'"),
    }[fault]
    edited.write_text(around.format(json.dumps(value)))
    capsys.readouterr()
    assert main([*evaluate, flag, str(edited)]) == 2
    assert capsys.readouterr().err == f"error: {where} {tail}\n"


def test_python_dash_m_runs_the_cli(tmp_path):
    paths = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    out = tmp_path / "g.nt"
    done = subprocess.run(
        [sys.executable, "-m", "tripleshard", "generate", "--sensors", "2", "--observations", "3",
         "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert parse_ntriples(out.read_text()).n > 0


def test_pipeline_writes_all_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["pipeline", "--sensors", "8", "--observations", "10", "--k", "3",
               "--nodes", "3", "--seed", "6", "--out", str(out)])
    assert rc == 0
    for name in (
        "triples.nt", "plan.json", "centrality.csv", "workload.json",
        "inc_report.csv", "report.json", "report.txt",
    ):
        assert (out / name).exists(), name
    store = parse_ntriples((out / "triples.nt").read_text())
    plan = PartitionPlan.from_json((out / "plan.json").read_text())
    plan.validate(store)
    centrality = (out / "centrality.csv").read_text()
    assert centrality.startswith("predicate,distinctSubjects,edgeCount,centrality")
    report = json.loads((out / "report.json").read_text())
    assert report["triples"] == store.n
    assert set(report["stages_ms"]) == {"ingest", "partition", "distribute", "evaluate"}
    text = (out / "report.txt").read_text()
    for section in ("stage timings", "fragments", "node loads", "replication",
                    "query workload"):
        assert section in text
    # the paper's headline figure, read from the same dict as report.json
    qet = f"mean QET proxy (meanQetProxy) {report['inc']['meanQetProxy']:.1f}\n"
    assert qet in text
    assert capsys.readouterr().out == f"{text}artifacts written to {out}\n"


def test_pipeline_prints_the_report_it_wrote(tmp_path, capsys):
    """Standard output is ``report.txt``, read back as UTF-8, then one line
    naming the directory."""
    csv_file = tmp_path / "data.csv"
    csv_file.write_text("id,t,n\nsé1,20,sé2\nsé2,30,sé3\nsé3,25,sé1\n", encoding="utf-8")
    config = tmp_path / "map.json"
    config.write_text(json.dumps({"csv_mapping": {
        "subject_column": "id", "properties": [["temp", "t"], ["near", "n"]],
        "resource_columns": ["n"],
    }}))
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(config), "--input", str(csv_file),
                 "--k", "2", "--nodes", "2", "--out", str(out)]) == 0
    *report, last = capsys.readouterr().out.splitlines(keepends=True)
    text = (out / "report.txt").read_text(encoding="utf-8")
    assert "sé1" in text
    assert "".join(report) == text
    assert last == f"artifacts written to {out}\n"


def test_pipeline_is_deterministic_across_runs(tmp_path):
    args = ["--sensors", "10", "--observations", "8", "--k", "3", "--nodes", "3",
            "--seed", "11"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["pipeline", *args, "--out", str(a)]) == 0
    assert main(["pipeline", *args, "--out", str(b)]) == 0
    for name in ("triples.nt", "plan.json", "centrality.csv", "workload.json",
                 "inc_report.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


@pytest.mark.parametrize("flags, pinned", [
    ({}, "report_defaults.json"),
    (dict(sensors=40, observations_per_sensor=30, seed=11, k=7, nodes=4, threshold=0.7),
     "report_threshold_0.7.json"),
], ids=["defaults", "threshold-0.7"])
def test_report_json_is_pinned(tmp_path, flags, pinned):
    """``report.json`` but its stage times: fragment ids, node loads, the
    replication level and the query means."""
    run_pipeline(PipelineConfig(out_dir=str(tmp_path), **flags))
    report = json.loads((tmp_path / "report.json").read_text())
    del report["stages_ms"]
    assert report == json.loads((Path(__file__).parent / "data" / pinned).read_text())


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "sensors": 6, "observations_per_sensor": 8, "k": 3, "nodes": 2, "seed": 5,
    }))
    out = tmp_path / "run"
    rc = main(["pipeline", "--config", str(config), "--k", "2", "--out", str(out)])
    assert rc == 0
    plan = PartitionPlan.from_json((out / "plan.json").read_text())
    assert plan.k == 2  # flag beats config
    assert plan.m == 2  # config beats default


def test_unknown_config_key_fails_with_message(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"sensrs": 4}))
    rc = main(["pipeline", "--config", str(config)])
    assert rc == 2
    assert "sensrs" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["single_pass", "strict_threshold"])
def test_removed_option_keys_are_unknown_config_keys(tmp_path, capsys, key):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: True}))
    rc = main(["pipeline", "--config", str(config), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert f"config file {config} has unknown keys: '{key}'" in capsys.readouterr().err


def test_invalid_threshold_fails(tmp_path, capsys):
    rc = main(["pipeline", "--sensors", "4", "--observations", "5",
               "--threshold", "1.5", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "threshold" in capsys.readouterr().err


def test_missing_input_file_fails(tmp_path, capsys):
    rc = main(["pipeline", "--input", str(tmp_path / "absent.nt"), "--k", "2",
               "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "absent.nt" in capsys.readouterr().err


def test_a_config_file_that_is_not_an_object_is_named(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text("[4]")
    assert main(["pipeline", "--config", str(config), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == f"error: config file {config} must be a JSON object, got [4]\n"


def test_a_long_workload_value_makes_a_short_error_line(tmp_path, capsys):
    evaluate = _evaluate_args(tmp_path)
    workload = tmp_path / "workload.json"
    workload.write_text(json.dumps([{"type": "star", "patterns": "x" * 1_000_000}]))
    capsys.readouterr()
    assert main([*evaluate, "--workload", str(workload)]) == 2
    err = capsys.readouterr().err
    assert len(err.encode()) < 200, err[:300]
    assert err.startswith("error: query 0: query 'patterns' must be a list, got 'xxx"), err


@pytest.mark.parametrize("entries, expected", [
    ({"sensors": list(range(200_000))},
     "sensors must be an integer of at least 0, got [0, 1, 2, 3, 4, 5, ...]"),
    ({"sensors": 4, "x" * 1_000_000: 1}, "has unknown keys: 'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
    ({f"k{i}": 1 for i in range(100_000)}, "has unknown keys: 'k0', 'k1', 'k2', 'k3', 'k4', 'k5', ..."),
], ids=["long-value", "long-key", "many-keys"])
def test_a_long_config_entry_makes_a_short_error_line(tmp_path, capsys, monkeypatch, entries, expected):
    monkeypatch.chdir(tmp_path)  # a short path, as an unknown key's error names the file
    Path("config.json").write_text(json.dumps(entries))
    assert main(["pipeline", "--config", "config.json", "--out", "run"]) == 2
    err = capsys.readouterr().err
    assert len(err.encode()) < 200, err[:300]
    assert err.startswith("error: ") and err.endswith(f"{expected}\n"), err


def test_csv_input_needs_a_csv_mapping(tmp_path, capsys):
    csv_file = tmp_path / "data.csv"
    csv_file.write_text("station,temp\nst1,20\n")
    assert main(["pipeline", "--input", str(csv_file), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == (
        f"error: CSV input {csv_file} needs a csv_mapping entry in the config file\n")
    assert not (tmp_path / "run").exists()


def test_csv_input_through_config(tmp_path):
    csv_file = tmp_path / "data.csv"
    csv_file.write_text("station,temp,hum\nst1,20,80\nst2,25,70\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "csv_mapping": {
            "subject_column": "station",
            "properties": [["hasTemp", "temp"], ["hasHumidity", "hum"]],
        },
    }))
    out = tmp_path / "run"
    rc = main(["pipeline", "--config", str(config), "--input", str(csv_file),
               "--k", "2", "--out", str(out)])
    assert rc == 0
    assert PartitionPlan.from_json((out / "plan.json").read_text()).k == 2


@pytest.mark.parametrize("suffix, text", [
    (".csv", "id,t,n\ns1,20,s2\ns2,30,s3\ns3,25,s1\n"),
    (".nt", "<a> <p> <b> .\n<b> <q> \"7\" .\n<a> <q> \"3\" .\n"),
], ids=["csv", "nt"])
def test_an_input_with_a_byte_order_mark_reads_as_without_it(tmp_path, suffix, text):
    config = tmp_path / "map.json"
    config.write_text(json.dumps({"csv_mapping": {
        "subject_column": "id", "properties": [["temp", "t"], ["near", "n"]],
        "resource_columns": ["n"],
    }}))
    runs = []
    for name, data in (("plain", text.encode()), ("marked", text.encode("utf-8-sig"))):
        source = tmp_path / (name + suffix)
        source.write_bytes(data)
        assert main(["pipeline", "--config", str(config), "--input", str(source),
                     "--k", "2", "--nodes", "2", "--out", str(tmp_path / name)]) == 0
        runs.append([(tmp_path / name / f).read_bytes() for f in ("plan.json", "inc_report.csv")])
    assert runs[1] == runs[0]


@pytest.mark.parametrize("kind, flag", [
    ("input", "--input"), ("config", "--config"), ("plan", "--plan"), ("workload", "--workload"),
])
def test_a_file_that_is_not_utf8_is_named(tmp_path, capsys, kind, flag):
    evaluate = _evaluate_args(tmp_path)
    broken = tmp_path / f"{kind}.bin"
    broken.write_bytes(b"<a> <p> \xff .\n")
    capsys.readouterr()
    assert main([*evaluate, flag, str(broken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {kind} file {broken} is not UTF-8 text: "), err
    assert "0xff" in err, err


@pytest.mark.parametrize("mapping, key", [
    ({"properties": [["hasTemp", "temp"]]}, "'subject_column'"),
    ({"subject_column": 3, "properties": [["hasTemp", "temp"]]}, "'subject_column'"),
    ({"subject_column": "station"}, "'properties'"),
    ({"subject_column": "station", "properties": "temp"}, "'properties'"),
    ({"subject_column": "station", "properties": [["hasTemp"]]}, "'properties'"),
    ({"subject_column": "station", "properties": [["hasTemp", "temp", "x"]]}, "'properties'"),
    ({"subject_column": "station", "properties": [{"hasTemp": "temp"}]}, "'properties'"),
    (["station"], "a JSON object, got ['station']"),
    ({"subject_column": "station", "properties": [], "resource_columns": "temp"},
     "'resource_columns'"),
    ({"subject_column": "station", "properties": [], "resource_columns": [3]},
     "'resource_columns'"),
    ({"subject_column": "station", "properties": [], "resource_column": ["temp"]},
     "'resource_column'"),
])
def test_malformed_csv_mapping_names_the_key(tmp_path, capsys, mapping, key):
    csv_file = tmp_path / "data.csv"
    csv_file.write_text("station,temp\nst1,20\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"csv_mapping": mapping}))
    rc = main(["pipeline", "--config", str(config), "--input", str(csv_file),
               "--out", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "csv_mapping" in err and key in err, err
    # the same mapping given in Python fails the same way
    with pytest.raises(ValueError) as exc:
        PipelineConfig(input_path=str(csv_file), csv_mapping=mapping)
    assert "csv_mapping" in str(exc.value) and key in str(exc.value), exc.value


def test_csv_mapping_dict_in_python_equals_config_file_form(tmp_path):
    entry = {"subject_column": "id", "properties": [["p", "t"]]}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"csv_mapping": entry}))
    from_file = build_config(build_parser().parse_args(["pipeline", "--config", str(config)]))
    direct = PipelineConfig(csv_mapping=entry)
    assert isinstance(direct.csv_mapping, CsvMapping)
    assert direct.csv_mapping == from_file.csv_mapping == CsvMapping("id", (("p", "t"),))
    assert direct == from_file
    assert hash(direct) == hash(from_file)


def test_csv_mapping_resource_columns(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"csv_mapping": {
        "subject_column": "id", "properties": [["tagged", "tag"]], "resource_columns": ["tag"],
    }}))
    mapping = build_config(build_parser().parse_args(["pipeline", "--config", str(config)])).csv_mapping
    assert mapping == CsvMapping("id", (("tagged", "tag"),), frozenset({"tag"}))


def test_scale_verb_writes_csv(tmp_path, capsys):
    out = tmp_path / "scale.csv"
    rc = main(["scale", "--sensors", "5", "--observations", "6", "--k", "2",
               "--nodes", "2", "--seed", "3", "--scales", "1,2", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("scale,n,ingest_ms")
    assert len(lines) == 3
    n1 = int(lines[1].split(",")[1])
    n2 = int(lines[2].split(",")[1])
    assert n2 > n1


def test_scaling_keeps_one_row_per_scale_in_column_order():
    config = PipelineConfig(sensors=12, observations_per_sensor=10, seed=11, k=4, nodes=3, threshold=0.7)
    rows = run_scaling(config, [1, 2, 3], repeats=2)
    assert [list(row) for row in rows] == [[
        "scale", "n", "replicatedTriples", "fractionLocal",
        "ingest_ms", "partition_ms", "distribute_ms", "evaluate_ms",
    ]] * 3
    assert [(r["scale"], r["n"], r["replicatedTriples"], r["fractionLocal"]) for r in rows] == [
        (1, 636, 381, 1.0), (2, 1265, 761, 1.0), (3, 2052, 1244, 1.0),
    ]
    assert all(type(r[key]) is float for r in rows for key in r if key.endswith("_ms"))


def test_scale_csv_columns_and_formats_are_pinned():
    row = {"scale": 2, "n": 1265, "replicatedTriples": 761, "fractionLocal": 2 / 3,
           "ingest_ms": 1.23456, "partition_ms": 0.5, "distribute_ms": 12.0004,
           "evaluate_ms": 7.8906}
    assert scale_rows_csv([row, {**row, "scale": 3, "fractionLocal": 1.0}]) == (
        "scale,n,ingest_ms,partition_ms,distribute_ms,evaluate_ms,replicatedTriples,fractionLocal\n"
        "2,1265,1.235,0.500,12.000,7.891,761,0.6667\n"
        "3,1265,1.235,0.500,12.000,7.891,761,1.0000\n"
    )


def test_scale_rejects_input(tmp_path, capsys):
    out = tmp_path / "scale.csv"
    with pytest.raises(SystemExit) as exc:
        main(["scale", "--input", str(tmp_path / "data.csv"), "--out", str(out)])
    assert exc.value.code == 2
    assert "--input" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scales", ["1,a", "1.5", "0,2"])
def test_scale_rejects_scales_that_are_not_positive_integers(tmp_path, capsys, scales):
    out = tmp_path / "scale.csv"
    with pytest.raises(SystemExit) as exc:
        main(["scale", "--sensors", "2", "--observations", "2", "--scales", scales, "--out", str(out)])
    assert exc.value.code == 2
    assert "argument --scales:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scales", [[True], [1.5], [2.0], [0], [1, -1], [], ["2"]])
def test_scaling_rejects_scales_that_are_not_positive_integers(scales):
    config = PipelineConfig(sensors=3, observations_per_sensor=4)
    message = (f"scales[{len(scales) - 1}] must be an integer of at least 1, got {scales[-1]!r}"
               if scales else "scales must be a non-empty list, got []")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_scaling(config, scales)


def test_scaling_rejects_an_iterator_of_scales():
    config = PipelineConfig(sensors=3, observations_per_sensor=4)
    with pytest.raises(ValueError, match="^scales must be a list, got <list_iterat"):
        run_scaling(config, iter([1, 2]))


@pytest.mark.parametrize("repeats", [True, False, 0, -1, 2.5, 2.0, "2", None])
def test_scaling_rejects_repeats_that_are_not_positive_integers(repeats):
    config = PipelineConfig(sensors=3, observations_per_sensor=4)
    message = f"repeats must be an integer of at least 1, got {repeats!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_scaling(config, [1], repeats)


def test_scaling_requires_generated_data(tmp_path):
    config = PipelineConfig(input_path=str(tmp_path / "t.nt"))
    with pytest.raises(ValueError):
        run_scaling(config, [1, 2])


def test_run_pipeline_outcome_consistency(tmp_path):
    config = PipelineConfig(
        sensors=6, observations_per_sensor=8, k=2, nodes=2, seed=9,
        out_dir=str(tmp_path / "run"),
    )
    outcome = run_pipeline(config)
    assert outcome.layout.plan.k == 2
    assert sum(outcome.layout.plan.node_loads()) == outcome.store.n
    assert 0.0 <= outcome.report.fraction_local <= 1.0


@pytest.mark.parametrize("key, value", [
    ("k", "2"), ("k", 2.5), ("k", True), ("nodes", None), ("sensors", "4"),
    ("observations_per_sensor", 5.0), ("seed", "abc"), ("seed", 7.5), ("seed", False),
    ("threshold", True), ("threshold", "0.5"), ("threshold", [0.5]),
    ("workload_counts", 5), ("workload_counts", [1, 2, 3]), ("workload_counts", [1, 2, 3, 4.0]),
    ("workload_counts", [1, 2, 3, True]), ("workload_counts", "1234"),
    ("workload_counts", [0, 0, 0, 0]),
    ("out_dir", 5), ("out_dir", None), ("input_path", 5),
])
def test_config_values_of_the_wrong_type_name_the_key(tmp_path, capsys, key, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"sensors": 4, "observations_per_sensor": 5,
                                  "out_dir": str(tmp_path / "run"), key: value}))
    rc = main(["pipeline", "--config", str(config)])
    assert rc == 2
    err = capsys.readouterr().err
    assert re.match(rf"error: {key}(\[3\])? must ", err), err  # a bad entry is named by its index
    assert not (tmp_path / "run").exists()


def test_config_stores_workload_counts_as_a_tuple():
    config = PipelineConfig(workload_counts=[1, 2, 3, 4])
    assert config.workload_counts == (1, 2, 3, 4)
    assert hash(config) == hash(PipelineConfig(workload_counts=(1, 2, 3, 4)))


def test_config_is_checked_when_replaced():
    with pytest.raises(ValueError, match=r"^k must be an integer of at least 1, got 0$"):
        replace(PipelineConfig(), k=0)
    with pytest.raises(ValueError, match=r"^nodes must be an integer of at least 1, got 0$"):
        replace(PipelineConfig(), nodes=0)
    for key in ("sensors", "observations_per_sensor"):
        with pytest.raises(ValueError, match=f"^{key} must be an integer of at least 0, got -1$"):
            replace(PipelineConfig(), **{key: -1})
    shapes = re.escape("one entry per shape ('linear', 'star', 'range', 'snowflake'), got (1, 2, 3)")
    with pytest.raises(ValueError, match=f"^workload_counts must be a list of {shapes}$"):
        replace(PipelineConfig(), workload_counts=(1, 2, 3))
    with pytest.raises(ValueError, match=re.escape("workload_counts must not be all zero, got [0, 0, 0, 0]")):
        replace(PipelineConfig(), workload_counts=[0, 0, 0, 0])


@pytest.mark.parametrize("key, value", [("threshold", 1), ("threshold", None), ("k", 2)])
def test_config_accepts_json_numbers_of_the_right_kind(tmp_path, key, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"sensors": 4, "observations_per_sensor": 5, key: value}))
    assert getattr(build_config(build_parser().parse_args(
        ["pipeline", "--config", str(config)])), key) == value
