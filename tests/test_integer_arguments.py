"""Every count, size and node id an entry point takes is checked by one rule,
in one wording, in the entry point's own error class."""

import pytest

from tripleshard.allocate import allocate
from tripleshard.cli import PipelineConfig, run_scaling
from tripleshard.generator import generate_sensor_graph
from tripleshard.layout import build_layout
from tripleshard.partition import grow_fragments, top_subjects
from tripleshard.plan import PartitionPlan, PlanError, build_plan
from tripleshard.query import (
    QueryPattern, TriplePattern, evaluate_distributed, generate_workload, inc_report,
)

STORE = generate_sensor_graph(1, 2, 3)
PARTITION = grow_fragments(STORE, top_subjects(STORE, 3))
PLAN = build_layout(STORE, 3, 2).plan
QUERY = QueryPattern("star", (TriplePattern("?s", "locatedIn", "?r"),
                              TriplePattern("?s", "stationModel", "?m")))
SCALED = PipelineConfig(sensors=2, observations_per_sensor=3)

# (entry point, the call with the value in the argument's place, NAME, LOW, HIGH, error class)
ENTRY_POINTS = [
    ("top_subjects", lambda v: top_subjects(STORE, v), "k", 1, None, ValueError),
    ("allocate-m", lambda v: allocate([3, 2], v), "m", 1, None, ValueError),
    ("allocate-sizes", lambda v: allocate([3, v], 2), "sizes[1]", 0, None, ValueError),
    ("build_layout-k", lambda v: build_layout(STORE, v, 2), "k", 1, None, ValueError),
    ("build_layout-m", lambda v: build_layout(STORE, 2, v), "m", 1, None, ValueError),
    ("PartitionPlan", lambda v: PartitionPlan((0,), (0,), v), "m", 1, None, PlanError),
    ("build_plan", lambda v: build_plan(PARTITION, ((0, v), (1,))), "allocation[0][1]", 0, 2, PlanError),
    ("generate_sensor_graph-sensors", lambda v: generate_sensor_graph(1, v, 3),
     "sensors", 0, None, ValueError),
    ("generate_sensor_graph-observations", lambda v: generate_sensor_graph(1, 2, v),
     "observations_per_sensor", 0, None, ValueError),
    ("generate_workload", lambda v: generate_workload(STORE, 1, (1, v, 0, 0)),
     "counts[1]", 0, None, ValueError),
    ("inc_report", lambda v: inc_report(STORE, PLAN, [QUERY], policy=v), "policy", 0, 1, ValueError),
    ("evaluate_distributed", lambda v: evaluate_distributed(STORE, PLAN, QUERY, v),
     "home_node", 0, 1, ValueError),
    ("visible_positions", lambda v: PLAN.visible_positions(v), "node_id", 0, 1, ValueError),
    ("run_scaling-scales", lambda v: run_scaling(SCALED, [1, v]), "scales[1]", 1, None, ValueError),
    ("run_scaling-repeats", lambda v: run_scaling(SCALED, [1], v), "repeats", 1, None, ValueError),
    *[(f"PipelineConfig-{key}", lambda v, key=key: PipelineConfig(**{key: v}), key, low, None, ValueError)
      for key, low in (("sensors", 0), ("observations_per_sensor", 0), ("k", 1), ("nodes", 1), ("seed", None))],
    ("PipelineConfig-workload_counts", lambda v: PipelineConfig(workload_counts=[1, v, 0, 0]),
     "workload_counts[1]", 0, None, ValueError),
]


def _cases():
    for entry, call, name, low, high, error in ENTRY_POINTS:
        bounds = ([low - 1] if low is not None else []) + ([high + 1] if high is not None else [])
        for value in (2.5, True, "2", None, *bounds):
            yield pytest.param(call, name, low, high, error, value, id=f"{entry}-{value!r}")


@pytest.mark.parametrize("call, name, low, high, error, value", _cases())
def test_an_integer_argument_is_checked_in_one_wording(call, name, low, high, error, value):
    bound = "" if low is None else f" of at least {low}" if high is None else f" in {low}..{high}"
    with pytest.raises(error) as exc:
        call(value)
    assert str(exc.value) == f"{name} must be an integer{bound}, got {value!r}"
