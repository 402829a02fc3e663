import pytest

from tripleshard.allocate import allocate
from tripleshard.generator import generate_sensor_graph
from tripleshard.layout import build_layout
from tripleshard.partition import grow_fragments, top_subjects
from tripleshard.plan import build_plan
from tripleshard.replicate import compute_centrality, derive_threshold, replicate


@pytest.mark.parametrize("threshold", [None, 0.65], ids=["derived", "fixed"])
def test_build_layout_equals_the_stages_composed_by_hand(threshold):
    store = generate_sensor_graph(3, 12, 10)
    masters = top_subjects(store, 4)
    partition = grow_fragments(store, masters)
    bare = build_plan(partition, allocate([f.size for f in partition.fragments], 3))
    table = compute_centrality(store)
    cutoff = derive_threshold(table, store, masters, override=threshold)
    decision, plan = replicate(bare, table, cutoff, store)

    layout = build_layout(store, 4, 3, threshold)
    assert layout.partition == partition
    assert layout.table == table
    assert layout.decision == decision
    assert layout.plan == plan
    assert layout.plan.to_json() == plan.to_json()

