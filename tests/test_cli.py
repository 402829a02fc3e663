import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from tripleshard.cli import (
    PipelineConfig, build_config, build_parser, main, run_pipeline, run_scaling,
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
        assert "home node" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:  # the home alone picks the routing
        main([*evaluate, "--policy", "fixed"])
    assert exc.value.code == 2


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


def test_pipeline_is_deterministic_across_runs(tmp_path):
    args = ["--sensors", "10", "--observations", "8", "--k", "3", "--nodes", "3",
            "--seed", "11"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["pipeline", *args, "--out", str(a)]) == 0
    assert main(["pipeline", *args, "--out", str(b)]) == 0
    for name in ("triples.nt", "plan.json", "centrality.csv", "workload.json",
                 "inc_report.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


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
    assert f"unknown config keys in {config}: {key}" in capsys.readouterr().err


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


@pytest.mark.parametrize("mapping, key", [
    ({"properties": [["hasTemp", "temp"]]}, "'subject_column'"),
    ({"subject_column": 3, "properties": [["hasTemp", "temp"]]}, "'subject_column'"),
    ({"subject_column": "station"}, "'properties'"),
    ({"subject_column": "station", "properties": "temp"}, "'properties'"),
    ({"subject_column": "station", "properties": [["hasTemp"]]}, "'properties'"),
    ({"subject_column": "station", "properties": [["hasTemp", "temp", "x"]]}, "'properties'"),
    ({"subject_column": "station", "properties": [{"hasTemp": "temp"}]}, "'properties'"),
    (["station"], "'subject_column'"),
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
    assert err.startswith(f"error: {key} must be"), err
    assert not (tmp_path / "run").exists()


def test_config_stores_workload_counts_as_a_tuple():
    config = PipelineConfig(workload_counts=[1, 2, 3, 4])
    assert config.workload_counts == (1, 2, 3, 4)
    assert hash(config) == hash(PipelineConfig(workload_counts=(1, 2, 3, 4)))


def test_config_is_checked_when_replaced():
    with pytest.raises(ValueError, match="k must be at least 1"):
        replace(PipelineConfig(), k=0)


@pytest.mark.parametrize("key, value", [("threshold", 1), ("threshold", None), ("k", 2)])
def test_config_accepts_json_numbers_of_the_right_kind(tmp_path, key, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"sensors": 4, "observations_per_sensor": 5, key: value}))
    assert getattr(build_config(build_parser().parse_args(
        ["pipeline", "--config", str(config)])), key) == value
