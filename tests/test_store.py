import random

import pytest

from tripleshard.store import (
    CsvMapping,
    IngestError,
    ParseError,
    Triple,
    TripleStore,
    ingest_csv,
    parse_ntriples,
    serialize_ntriples,
)

from _helpers import random_store


def test_parse_single_resource_statement():
    store = parse_ntriples("<a> <p> <b> .")
    assert store.n == 1
    t = store.triples[0]
    assert (t.subject, t.predicate, t.object, t.object_is_literal) == ("a", "p", "b", False)


def test_parse_literal_statement():
    store = parse_ntriples('<s1> <hasTemp> "20" .')
    t = store.triples[0]
    assert t.object == "20"
    assert t.object_is_literal


def test_duplicate_statements_collapse():
    text = "<a> <p> <b> .\n<a> <p> <b> .\n"
    store = parse_ntriples(text)
    assert store.n == 1
    assert serialize_ntriples(store) == "<a> <p> <b> .\n"


def test_comments_and_blank_lines_skipped():
    text = "# header comment\n\n<a> <p> <b> .\n   \n# done\n"
    assert parse_ntriples(text).n == 1


def test_empty_input_gives_empty_store():
    store = parse_ntriples("")
    assert store.n == 0
    assert serialize_ntriples(store) == ""


def test_malformed_line_reports_line_number():
    text = "<a> <p> <b> .\nthis is not a triple\n"
    with pytest.raises(ParseError) as err:
        parse_ntriples(text)
    assert err.value.line_number == 2
    assert "line 2" in str(err.value)


@pytest.mark.parametrize(
    "bad",
    [
        "<a> <p> .",
        "<a> <p> <b>",
        "<a> \"lit\" <b> .",
        "<a> <p> <b> <c> .",
    ],
)
def test_malformed_variants_rejected(bad):
    with pytest.raises(ParseError):
        parse_ntriples(bad)


def test_literal_escaping_round_trips():
    original = TripleStore(
        [
            Triple("s", "says", 'he said "hi"', True),
            Triple("s", "path", "C:\\temp\\x", True),
        ]
    )
    assert parse_ntriples(serialize_ntriples(original)) == original


def test_store_rejects_empty_subject_or_predicate():
    with pytest.raises(ValueError):
        TripleStore([Triple("", "p", "o")])
    with pytest.raises(ValueError):
        TripleStore([Triple("s", "", "o")])
    with pytest.raises(ValueError):
        ingest_csv("id,temp\ns1,20\n", CsvMapping("id", (("", "temp"),)))


def test_round_trip_randomized():
    rng = random.Random(40)
    for _ in range(25):
        store = random_store(rng, rng.randint(20, 400))
        text = serialize_ntriples(store)
        again = parse_ntriples(text)
        assert again == store
        assert serialize_ntriples(again) == text


def test_index_soundness_randomized():
    rng = random.Random(41)
    for _ in range(15):
        store = random_store(rng, rng.randint(20, 300))
        subject_seen, predicate_seen = set(), set()
        for s, positions in store.subject_index.items():
            for p in positions:
                assert store.triples[p].subject == s
                subject_seen.add(p)
        for name, positions in store.predicate_index.items():
            for p in positions:
                assert store.triples[p].predicate == name
                predicate_seen.add(p)
        assert subject_seen == predicate_seen == set(range(store.n))


def test_numeric_index_sorts_numbers_by_value_then_position():
    store = TripleStore([
        Triple("a", "t", "7", True), Triple("b", "t", "nan", True), Triple("c", "t", "-inf", True),
        Triple("d", "t", " 7 ", True), Triple("e", "t", "hot", True), Triple("f", "u", "1", True),
        Triple("g", "t", "1_0", False), Triple("a", "t", "7", False),
    ])
    values, positions = store.numeric_index("t")
    assert list(values) == [float("-inf"), 7.0, 7.0, 7.0, 10.0]
    assert list(positions) == [2, 0, 3, 7, 6]
    assert store.numeric_index("t") is store.numeric_index("t")
    assert [list(a) for a in store.numeric_index("absent")] == [[], []]
    # oracle: every object of the predicate that float() reads (random stores
    # hold no NaN), in a sort of its own
    rng = random.Random(43)
    for _ in range(10):
        store = random_store(rng, rng.randint(20, 300))
        for predicate, candidates in store.predicate_index.items():
            expected = []
            for pos in candidates:
                try:
                    expected.append((float(store.triples[pos].object), pos))
                except ValueError:
                    pass
            values, positions = store.numeric_index(predicate)
            assert list(zip(values, positions)) == sorted(expected)


def test_store_deduplicates_on_construction():
    t = Triple("a", "p", "b")
    store = TripleStore([t, t, Triple("a", "p", "b", True)])
    # literal flag distinguishes otherwise equal triples
    assert store.n == 2
    b = Triple("b", "p", "c")
    assert TripleStore([b, t, b]).triples == (b, t)


MAPPING = CsvMapping(subject_column="id", properties=(("hasTemp", "temp"),))


def test_ingest_single_cell():
    result = ingest_csv("id,temp\ns1,20\n", MAPPING)
    assert result.skipped_cells == 0
    assert result.store.triples == (Triple("s1", "hasTemp", "20", True),)


def test_ingest_two_rows_three_columns():
    mapping = CsvMapping(
        subject_column="id",
        properties=(("hasTemp", "temp"), ("hasWind", "wind"), ("hasHum", "hum")),
    )
    text = "id,temp,wind,hum\ns1,20,3,80\ns2,22,5,75\n"
    result = ingest_csv(text, mapping)
    assert result.store.n == 6
    assert result.skipped_cells == 0


def test_ingest_skips_empty_cells_and_counts():
    text = "id,temp\ns1,\ns2,30\n"
    result = ingest_csv(text, MAPPING)
    assert result.store.n == 1
    assert result.skipped_cells == 1


def test_ingest_empty_subject_skips_row():
    text = "id,temp\n,20\ns2,30\n"
    result = ingest_csv(text, MAPPING)
    assert result.store.n == 1
    assert result.skipped_cells == 1


def test_ingest_missing_column_names_it():
    with pytest.raises(IngestError) as err:
        ingest_csv("id,other\ns1,x\n", MAPPING)
    assert "temp" in str(err.value)


def test_ingest_resource_columns():
    mapping = CsvMapping(
        subject_column="id",
        properties=(("linksTo", "target"),),
        resource_columns=frozenset({"target"}),
    )
    result = ingest_csv("id,target\ns1,s2\n", mapping)
    t = result.store.triples[0]
    assert (t.subject, t.predicate, t.object) == ("s1", "linksTo", "s2")
    assert not t.object_is_literal


@pytest.mark.parametrize("rows, line, column", [
    ("s1,20,s2\nitem 2,21,s1\n", 3, "id"),
    ("s1,20,<s2>\n", 2, "target"),
    ("s1,20,s2\ns3,21,s 4\n", 3, "target"),
    ('s1,"two\nlines",s2\n', 3, "temp"),
    ('s1,"two\rlines",s2\n', 3, "temp"),
])
def test_ingest_rejects_cells_the_writer_cannot_write(rows, line, column):
    """The error names the CSV line on which the row ends, and the column."""
    mapping = CsvMapping("id", (("hasTemp", "temp"), ("linksTo", "target")),
                         frozenset({"target"}))
    with pytest.raises(IngestError, match=f"CSV line {line}, column '{column}'"):
        ingest_csv("id,temp,target\n" + rows, mapping)


@pytest.mark.parametrize("predicate", ["has temp", "<hasTemp>", "has\ttemp"])
def test_ingest_rejects_unwritable_predicate_names(predicate):
    with pytest.raises(IngestError, match="predicate"):
        ingest_csv("id,temp\ns1,20\n", CsvMapping("id", ((predicate, "temp"),)))


def test_mapping_checks_predicate_names_when_built():
    with pytest.raises(IngestError, match="'has temp'"):
        CsvMapping("id", (("has temp", "temp"),))


def test_ingested_store_round_trips_through_the_writer():
    text = 'id,label,target\ns1,"a label, quoted",s2\ns2,"say ""hi"" \\\\ back",s1\n'
    mapping = CsvMapping("id", (("label", "label"), ("linksTo", "target")),
                         frozenset({"target"}))
    store = ingest_csv(text, mapping).store
    assert store.n == 4
    assert parse_ntriples(serialize_ntriples(store)) == store


def test_quoted_line_break_in_an_unmapped_column_keeps_rows_apart():
    text = 'id,note,temp\ns1,"first\nsecond",20\ns2,x,21\n'
    result = ingest_csv(text, MAPPING)
    assert result.store.triples == (Triple("s1", "hasTemp", "20", True),
                                    Triple("s2", "hasTemp", "21", True))
