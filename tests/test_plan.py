import json
from dataclasses import replace

import pytest

from tripleshard.generator import generate_sensor_graph
from tripleshard.layout import build_layout
from tripleshard.partition import grow_fragments, top_subjects
from tripleshard.plan import PartitionPlan, PlanError, build_plan, round_robin_triple_plan
from tripleshard.store import Triple, TripleStore

from _helpers import grown_plan


def _store(n=6):
    return TripleStore([Triple(f"s{i % 3}", "p", f"o{i}") for i in range(n)])


def test_json_round_trip():
    store = _store()
    plan = replace(grown_plan(store, 2, 2), replicated=(1, 3))
    again = PartitionPlan.from_json(plan.to_json())
    assert again == plan
    assert again.to_json() == plan.to_json()
    assert again.replicas == plan.replicas
    again.validate(store)


def test_owner_lookup_covers_every_position():
    store = _store()
    plan = grown_plan(store, 2, 2)
    for pos in range(store.n):
        owner = plan.owner_of(pos)
        assert plan.seen_by[pos] == 1 << owner  # nothing replicated: the owner alone
    owners = [plan.owner_of(pos) for pos in range(store.n)]
    assert plan.node_loads() == [owners.count(node) for node in range(plan.m)]


def test_validate_accepts_built_plans():
    store = _store(12)
    grown_plan(store, 3, 2).validate(store)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP known defect: a plan is accepted against a different store of the same size",
)
def test_validate_rejects_a_plan_of_another_store_of_the_same_size():
    plan = build_layout(generate_sensor_graph(8, 6, 8), 3, 3).plan
    other = generate_sensor_graph(21, 6, 8)
    assert other.n == len(plan.fragment_of) == 276
    with pytest.raises(PlanError):
        plan.validate(other)


def test_surplus_nodes_stay_empty_and_round_trip():
    store = _store()
    plan = grown_plan(store, 2, 5)  # build_plan(partition, allocate(sizes, 5))
    assert plan.m == 5
    assert plan.node_loads()[2:] == [0, 0, 0]
    assert sum(plan.node_loads()) == store.n
    plan.validate(store)
    again = PartitionPlan.from_json(plan.to_json())
    assert again == plan
    assert again.to_json() == plan.to_json()


def test_validate_rejects_incomplete_coverage():
    plan = grown_plan(_store(6), 2, 2)
    with pytest.raises(PlanError, match="fragment_of"):
        plan.validate(_store(7))


def test_validate_rejects_unassigned_fragment():
    data = json.loads(grown_plan(_store(), 2, 2).to_json())
    data["node_of_fragment"] = data["node_of_fragment"][:1]
    with pytest.raises(PlanError, match="node_of_fragment"):
        PartitionPlan.from_json(json.dumps(data))


def test_build_plan_rejects_unassigned_fragment():
    store = _store()
    partition = grow_fragments(store, top_subjects(store, 3))
    for allocation, fragment in (((0,), (1,)), 2), (((0, 1),), 2), ((), 0):
        with pytest.raises(PlanError, match=f"^fragment {fragment} is on no node$"):
            build_plan(partition, allocation)


@pytest.mark.parametrize("allocation, message", [
    pytest.param(((0, 1, 2), (2,)), r"fragment 2 is placed twice: on node 0 and on node 1",
                 id="two-nodes"),
    pytest.param(((0, 1, 1), (2,)), r"fragment 1 is placed twice: on node 0 and on node 0",
                 id="one-node-twice"),
    pytest.param(((0, 1), (-1,)), r"^allocation\[1\]\[0\] must be an integer in 0\.\.2, got -1$",
                 id="negative"),
    pytest.param(((0, 1), (3,)), r"^allocation\[1\]\[0\] must be an integer in 0\.\.2, got 3$",
                 id="past-the-end"),
    pytest.param(((0, True), (2,)), r"^allocation\[0\]\[1\] must be an integer in 0\.\.2, got True$",
                 id="bool"),
])
def test_build_plan_rejects_a_fragment_placed_twice_or_out_of_range(allocation, message):
    store = _store()
    partition = grow_fragments(store, top_subjects(store, 3))
    with pytest.raises(PlanError, match=message):
        build_plan(partition, allocation)


def test_replace_rejects_unsorted_replicated():
    with pytest.raises(PlanError, match="replicated"):
        replace(grown_plan(_store(), 2, 2), replicated=(5, 3, 3))


def test_constructor_rejects_replica_past_the_store():
    with pytest.raises(PlanError, match="replicated"):
        PartitionPlan((0, 0), (0,), 1, (7,))


def test_round_robin_plan_needs_a_node():
    with pytest.raises(PlanError, match="^m must be an integer of at least 1, got 0$"):
        round_robin_triple_plan(_store(), 0)


def test_from_json_requires_contiguous_ids():
    plan = grown_plan(_store(), 2, 2)
    for field, value in (("fragment_of", (0, 1, 2, 0, 1, 0)), ("node_of_fragment", (0, 2))):
        data = json.loads(plan.to_json())
        data[field] = value
        with pytest.raises(PlanError, match=field):
            PartitionPlan.from_json(json.dumps(data))


_V3_FILE = json.loads(replace(grown_plan(_store(), 2, 2), replicated=(1, 3)).to_json())

# the format before version 2, as the loader last accepted it
_V1_FILE = {
    "k": 1, "m": 2,
    "fragments": [{"id": 0, "master": "s0", "tripleRefs": [0, 1, 2, 3, 4, 5]}],
    "nodes": [{"id": 0, "fragmentIds": [0]}, {"id": 1, "fragmentIds": []}],
    "replicas": [[], []],
}


def _edited(**changes):
    """The valid version-3 file with fields replaced; None removes a field."""
    data = dict(_V3_FILE, **changes)
    return {key: value for key, value in data.items() if value is not None}


@pytest.mark.parametrize(
    "data, field",
    [
        (_edited(replicated=["3"]), "replicated"),
        (_edited(fragment_of=["0"] + _V3_FILE["fragment_of"][1:]), "fragment_of"),
        (_edited(replicated=[True]), "replicated"),
        (_edited(replicated=[1.0]), "replicated"),
        (_edited(replicated=[3, 3]), "replicated"),
        (_edited(version=None), "version"),
        (_V1_FILE, "version"),
        (_edited(version=2, fragment_masters=["s0", "s1"]), "version"),
        (_edited(fragment_masters=["s0", "s1"]), "fragment_masters"),
        (_edited(replicatd=[1]), "replicatd"),
        (_edited(fragment_of=5), "^fragment_of must be a list, got 5$"),
        (_edited(replicated=None), "plan JSON has no 'replicated' key"),
        # a whole file that is not an object is shown abridged
        (list(range(1000)), r"^plan JSON must be a JSON object, got \[0, 1, 2, 3, 4, 5, \.\.\.\]$"),
    ],
    ids=["string-position", "string-fragment-id", "bool-position",
         "float-position", "duplicate-replica", "no-version", "old-format",
         "version-2", "dropped-key", "misspelled-key", "field-not-a-list", "missing-field",
         "not-an-object"],
)
def test_from_json_rejects_hand_edited_files(data, field):
    with pytest.raises(PlanError, match=field):
        PartitionPlan.from_json(json.dumps(data))


def test_round_robin_plan_deals_positions_in_rotation():
    store = _store(7)
    plan = round_robin_triple_plan(store, 3)
    plan.validate(store)
    for pos in range(store.n):
        assert plan.owner_of(pos) == pos % 3
