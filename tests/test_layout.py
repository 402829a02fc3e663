import statistics

import pytest

from tripleshard.allocate import allocate
from tripleshard.generator import generate_sensor_graph
from tripleshard.layout import build_layout
from tripleshard.partition import grow_fragments, top_subjects
from tripleshard.plan import build_plan
from tripleshard.replicate import compute_centrality, derive_threshold, replicate
from tripleshard.store import CsvMapping, TripleStore, ingest_csv, parse_ntriples, serialize_ntriples

from _helpers import count_ops


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


def _subject_rows_csv(store: TripleStore) -> tuple[str, CsvMapping]:
    """The store as CSV: a row per subject holding its first object under
    each predicate, and the mapping that reads the rows back."""
    predicates = list(store.predicate_index)
    lines = [",".join(["id", *predicates])]
    for subject, positions in store.subject_index.items():
        row = dict.fromkeys(predicates, "")
        for pos in reversed(positions):
            row[store.triples[pos].predicate] = store.triples[pos].object
        lines.append(",".join([subject, *row.values()]))
    resources = {t.predicate for t in store.triples if not t.object_is_literal}
    return "".join(line + "\n" for line in lines), CsvMapping(
        "id", [(p, p) for p in predicates], resources)


def test_ingest_and_layout_work_grows_linearly_with_the_triples():
    """The O(n) claim counted, not timed: per-triple bytecode counts of
    ingest, layout, the layout stages whose Python work scales with the
    data and the subject-link pass stay flat from 1x to 5x data.

    Ingest is counted on three inputs: the writer's text, which takes the
    line fast path; the same text with tabs between terms, which takes the
    full-pattern fallback; and the store as CSV rows.

    Three stages are left out. ``build_plan`` and ``replicate`` run a
    constant few hundred opcodes at every scale, as their per-triple work
    is inside C calls; ``derive_threshold`` follows the top subjects'
    triples, not n.
    """
    ns, counts = [], {}
    for scale in range(1, 6):
        store = generate_sensor_graph(7, 20, 30 * scale)
        text = serialize_ntriples(store)
        table, mapping = _subject_rows_csv(store)
        masters = top_subjects(store, 5)
        ns.append(store.n)
        for name, call, *args in (
            ("ingest", parse_ntriples, text),
            ("ingest_fallback", parse_ntriples, text.replace("> <", ">\t<")),
            ("ingest_csv", ingest_csv, table, mapping),
            ("layout", build_layout, store, 5, 3),
            ("top_subjects", top_subjects, store, 5),
            ("subject_links", TripleStore.subject_links, store),
            ("grow_fragments", grow_fragments, store, masters),
            ("compute_centrality", compute_centrality, store),
        ):
            counts.setdefault(name, []).append(count_ops(call, *args))
    for name, work in counts.items():
        r2 = statistics.correlation(ns, work) ** 2
        per_triple = [c / n for c, n in zip(work, ns)]
        assert r2 >= 0.999, f"{name} opcodes not linear in n: r2={r2:.5f}, {per_triple}"
        assert all(abs(x / per_triple[0] - 1) <= 0.1 for x in per_triple), (
            f"{name} opcodes per triple drift from 1x: {per_triple}"
        )
