"""Every real number and every list an entry point takes is checked by one
rule each, in one wording, in the entry point's own error class."""

import json
import math

import pytest

from tripleshard.cli import PipelineConfig, run_scaling
from tripleshard.generator import generate_sensor_graph
from tripleshard.layout import build_layout
from tripleshard.partition import grow_fragments, top_subjects
from tripleshard.plan import PartitionPlan, PlanError, build_plan
from tripleshard.query import QueryPattern, RangeFilter, generate_workload, query_from_dict, workload_from_json
from tripleshard.replicate import derive_threshold, replicate
from tripleshard.store import CsvMapping, IngestError

STORE = generate_sensor_graph(1, 2, 3)
MASTERS = top_subjects(STORE, 3)
PARTITION = grow_fragments(STORE, MASTERS)
LAYOUT = build_layout(STORE, 3, 2)
SCALED = PipelineConfig(sensors=2, observations_per_sensor=3)
THRESHOLD = "threshold must be a number in (0, 1]"

# (entry point, the call with the value in the argument's place, the message
# before ", got VALUE", error class, values tried beyond the common ones)
NUMBERS = [
    ("RangeFilter-low", lambda v: RangeFilter("t", v, 1.0), "filter 'low' must be a number", ValueError, [None]),
    ("RangeFilter-high", lambda v: RangeFilter("t", 0.0, v), "filter 'high' must be a number", ValueError, [None]),
    ("PipelineConfig-threshold", lambda v: PipelineConfig(threshold=v), THRESHOLD, ValueError, [0, 1.5]),
    ("derive_threshold", lambda v: derive_threshold(LAYOUT.table, STORE, MASTERS, override=v),
     THRESHOLD, ValueError, [0, 1.5]),
    ("replicate", lambda v: replicate(LAYOUT.plan, LAYOUT.table, v, STORE), THRESHOLD, ValueError,
     [None, 0, 1.5]),
    ("build_layout", lambda v: build_layout(STORE, 3, 2, threshold=v), THRESHOLD, ValueError, [0, 1.5]),
]

LISTS = [
    ("PartitionPlan-fragment_of", lambda v: PartitionPlan(v, (0,), 1), "fragment_of", PlanError),
    ("PartitionPlan-node_of_fragment", lambda v: PartitionPlan((0,), v, 1), "node_of_fragment", PlanError),
    ("PartitionPlan-replicated", lambda v: PartitionPlan((0,), (0,), 1, v), "replicated", PlanError),
    ("build_plan", lambda v: build_plan(PARTITION, v), "allocation", PlanError),
    ("build_plan-node", lambda v: build_plan(PARTITION, ((0, 1, 2), v)), "allocation[1]", PlanError),
    ("run_scaling", lambda v: run_scaling(SCALED, v), "scales", ValueError),
    ("generate_workload", lambda v: generate_workload(STORE, 1, v), "counts", ValueError),
    ("PipelineConfig-workload_counts", lambda v: PipelineConfig(workload_counts=v), "workload_counts", ValueError),
    ("QueryPattern", lambda v: QueryPattern("star", v), "patterns", ValueError),
    ("query_from_dict", lambda v: query_from_dict({"type": "star", "patterns": v}), "query 'patterns'", ValueError),
    ("workload_from_json", lambda v: workload_from_json(json.dumps(v)), "workload JSON", ValueError),
    ("CsvMapping-properties", lambda v: CsvMapping("id", v), "csv_mapping 'properties'", IngestError),
    ("CsvMapping-pair", lambda v: CsvMapping("id", [("p", "c"), v]), "csv_mapping 'properties'[1]", IngestError),
]


def _cases():
    for entry, call, head, error, extra in NUMBERS:
        for value in (True, "0.5", [0.5], math.nan, *extra):
            yield pytest.param(call, f"{head}, got {value!r}", error, value, id=f"{entry}-{value!r}")
    for entry, call, name, error in LISTS:
        for value in (5, "ab", None, {}):
            yield pytest.param(call, f"{name} must be a list, got {value!r}", error, value,
                               id=f"{entry}-{value!r}")


@pytest.mark.parametrize("call, message, error, value", _cases())
def test_a_number_or_list_argument_is_checked_in_one_wording(call, message, error, value):
    with pytest.raises(ValueError) as exc:
        call(value)
    assert type(exc.value) is error
    assert str(exc.value) == message

