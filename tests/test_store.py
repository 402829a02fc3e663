import csv
import gc
import io
import random
import re
import sys

import pytest

import tripleshard.store as store_module

from tripleshard.generator import generate_sensor_graph
from tripleshard.partition import grow_fragments
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

from _helpers import brute_force_fragments, brute_force_subject_links, random_store


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


@pytest.mark.parametrize("triple, message", [
    (Triple("a b", "p", "o"), "triple 1, subject: 'a b' holds whitespace"),
    (Triple("a", "p q", "o"), "triple 1, predicate: 'p q' holds whitespace"),
    (Triple("a", "p", "<o>"), "triple 1, object: '<o>' holds whitespace, '<' or '>'"),
    (Triple("a", "p", "x\ny", True), "triple 1, object: 'x\\ny' holds a line break"),
    (Triple("a", "p", ""), "triple 1, object: '' is empty"),
], ids=["space-in-resource", "space-in-predicate", "angle-brackets-in-resource",
        "newline-in-literal", "empty-resource-object"])
def test_writer_rejects_terms_it_cannot_write(triple, message):
    """Each would write a line that ``parse_ntriples`` rejects."""
    store = TripleStore([Triple("s", "v", "x\ty", True), triple])
    with pytest.raises(ValueError, match=re.escape(message)):
        serialize_ntriples(store)


# every line break str.splitlines splits on, other whitespace (tab, NBSP,
# U+3000), the characters the line grammar gives a meaning, NUL and a
# non-ASCII letter
_SPECIALS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029\t\xa0\u3000<>\"\\\x00é"
# the csv module reads NUL only from Python 3.11
_CSV_SPECIALS = _SPECIALS if sys.version_info >= (3, 11) else _SPECIALS.replace("\x00", "")


def _draw_term(rng, shortest=0, specials=_SPECIALS):
    """Up to three plain letters with up to two specials put in anywhere."""
    chars = rng.choices("abc", k=rng.randint(shortest, 3))
    for _ in range(rng.choice((0, 0, 0, 1, 2))):
        chars.insert(rng.randint(0, len(chars)), rng.choice(specials))
    return "".join(chars)


def _writable(term, is_literal):
    return store_module._unwritable_reason(term, is_literal) is None


def _line_shape(s, p, o, is_literal):
    if is_literal:
        o = '"' + o.replace("\\", "\\\\").replace('"', '\\"') + '"'
    else:
        o = f"<{o}>"
    return f"<{s}> <{p}> {o} .\n"


def _reads_back(text, store):
    try:
        return parse_ntriples(text) == store
    except ParseError:
        return False


def test_the_writers_rule_is_the_parsers_grammar():
    """The writer writes a store exactly when the rule accepts each of its
    terms, and what it writes parses back equal. A term the rule rejects,
    put in the writer's line shape all the same, does not read back."""
    rng = random.Random(62)
    written = refused = 0
    for _ in range(2500):
        store = TripleStore(
            Triple(_draw_term(rng, 1), _draw_term(rng, 1), _draw_term(rng), rng.random() < 0.5)
            for _ in range(rng.randint(1, 2))
        )
        writable = all(_writable(s, False) and _writable(p, False) and _writable(o, is_literal)
                       for s, p, o, is_literal in store.triples)
        text = "".join(_line_shape(*t) for t in store.triples)
        assert _reads_back(text, store) == writable, store.triples
        if writable:
            assert serialize_ntriples(store) == text
            written += 1
        else:
            with pytest.raises(ValueError, match="which the triple writer cannot write$"):
                serialize_ntriples(store)
            refused += 1
    assert written > 300 and refused > 300


def test_csv_ingest_takes_a_term_exactly_when_the_writer_can_write_it():
    """Predicate names when the mapping is built, and stripped subject,
    literal and resource cells when they are read."""
    rng = random.Random(63)
    for _ in range(300):
        predicate = _draw_term(rng, specials=_CSV_SPECIALS)
        if _writable(predicate, False):
            CsvMapping("id", ((predicate, "lit"),))
        else:
            with pytest.raises(IngestError, match="^csv_mapping predicate: "):
                CsvMapping("id", ((predicate, "lit"),))
    mapping = CsvMapping("id", (("p", "lit"), ("q", "res")), frozenset({"res"}))
    taken = refused = 0
    for _ in range(600):
        row = [_draw_term(rng, specials=_CSV_SPECIALS) for _ in range(3)]
        text = io.StringIO()
        csv.writer(text).writerows([("id", "lit", "res"), row])
        subject, lit, res = cells = [cell.strip() for cell in row]
        # an empty subject skips the row, and an empty cell is skipped
        if not subject or all(not cell or _writable(cell, is_literal)
                              for cell, is_literal in zip(cells, (False, True, False))):
            store = ingest_csv(text.getvalue(), mapping).store
            expected = [Triple(subject, "p", lit, True), Triple(subject, "q", res, False)]
            assert store.triples == tuple(t for t in expected if subject and t.object)
            assert parse_ntriples(serialize_ntriples(store)) == store
            taken += 1
        else:
            with pytest.raises(IngestError, match="which the triple writer cannot write$"):
                ingest_csv(text.getvalue(), mapping)
            refused += 1
    assert taken > 300 and refused > 100


def test_line_pattern_agrees_with_the_per_character_literal_pattern():
    # oracle: the literal written as one alternation per character; the
    # unrolled form must match the same lines with the same groups
    oracle = re.compile(
        store_module._LINE_RE.pattern.replace(store_module._LITERAL, r'"((?:[^"\\]|\\.)*)"')
    )
    assert oracle.pattern != store_module._LINE_RE.pattern
    rng = random.Random(53)
    pieces = ("<a>", "<p>", "<b c>", '"', '\\', '\\"', "\\\\", " ", "\t", ".", "x", "é", "<", ">", "\n")
    lines = ['<a> <p> "' + "".join(rng.choices(pieces, k=rng.randint(0, 8))) + '" .' for _ in range(3000)]
    lines += ["".join(rng.choices(pieces, k=rng.randint(0, 14))) for _ in range(3000)]
    matched = written = 0
    for line in lines:
        found, expected = store_module._LINE_RE.match(line), oracle.match(line)
        assert (found and found.groups()) == (expected and expected.groups()), line
        matched += found is not None
        # the writer-shape fast path matches a subset, with the same groups
        fast = store_module._WRITTEN_LINE.match(line)
        if fast is not None:
            assert found is not None and fast.groups() == found.groups(), line
            written += 1
    assert matched > 500
    assert written > 500
    # and every line the writer writes takes the fast path
    text = serialize_ntriples(generate_sensor_graph(7, 6, 8))
    assert len(text.splitlines()) > 200
    assert all(store_module._WRITTEN_LINE.match(line) for line in text.splitlines())


@pytest.mark.parametrize("line, triple", [
    ('<s>\t<p> "x" .', Triple("s", "p", "x", True)),
    ("<s>  <p> <o> .", Triple("s", "p", "o", False)),
    ('<é> <p> "x" .', Triple("é", "p", "x", True)),
    ('<s> <p> "x".', Triple("s", "p", "x", True)),
], ids=["tab", "double-space", "non-ascii", "no-space-before-dot"])
def test_lines_off_the_fast_path_parse_through_the_fallback(line, triple):
    assert store_module._WRITTEN_LINE.match(line) is None
    canonical = serialize_ntriples(TripleStore([triple]))
    assert parse_ntriples(f"{line}\n") == parse_ntriples(canonical) == TripleStore([triple])


def _terms_are_shared(store: TripleStore) -> bool:
    terms = [x for t in store.triples for x in t[:3]]
    return len({id(x) for x in terms}) == len(set(terms))


def test_parsed_store_holds_each_distinct_term_once():
    rng = random.Random(54)
    store = random_store(rng, 400)
    # a term used in two roles: an object that is also a subject and a predicate
    text = serialize_ntriples(store) + '<p0> <s1> "s1" .\n<s1> <p0> <p0> .\n'
    parsed = parse_ntriples(text)
    assert parsed.n == store.n + 2
    assert _terms_are_shared(parsed)
    # the check has teeth: fresh copies of equal strings fail it
    copies = TripleStore(Triple(*(x.encode().decode() for x in t[:3]), t[3])
                         for t in parsed.triples)
    assert copies == parsed and not _terms_are_shared(copies)


def test_csv_store_holds_each_distinct_term_once():
    mapping = CsvMapping("id", (("s2", "temp"), ("linksTo", "target")), frozenset({"target"}))
    text = "id,temp,target\ns1,20,s2\ns2,20,s1\ns3,s2,s1\ns1,21,s3\n"
    store = ingest_csv(text, mapping).store
    assert store.n == 8
    assert _terms_are_shared(store)


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


def _assert_links_match_the_oracle(store: TripleStore) -> None:
    links, expected = store.subject_links(), brute_force_subject_links(store)
    assert list(links) == list(expected), (
        "subjects must come in subject_index order, not in the order of their first link: "
        f"{list(links)[:8]} != {list(expected)[:8]}"
    )
    for subject, positions in links.items():
        assert positions == sorted(positions), f"{subject!r}'s link positions do not ascend"
    assert links == expected


def test_subject_links_match_a_naive_oracle():
    store = TripleStore([
        Triple("m", "p", "m"),  # a self-link
        Triple("b", "q", "m"),  # a link into the master's group, ahead of m's first link
        Triple("m", "label", "b", True),  # a literal whose text names a subject
        Triple("m", "p", "nowhere"),  # a resource that names no subject
        Triple("m", "p", "b"),
        Triple("c", "p", "b", True),  # a literal/resource twin
        Triple("c", "p", "b"),
        Triple("m", "q", "c"),
    ])
    assert store.subject_links() == {"m": [4, 7], "b": [1], "c": [6]}
    _assert_links_match_the_oracle(store)
    # and growth over these links matches the brute-force partition
    partition = grow_fragments(store, ["m", "c"])
    assert (list(partition.fragment_of), [f.size for f in partition.fragments],
            partition.orphan_count) == brute_force_fragments(store, ["m", "c"])
    rng = random.Random(31)
    for _ in range(20):
        _assert_links_match_the_oracle(random_store(rng, rng.randint(20, 600)))


def test_store_deduplicates_on_construction():
    t = Triple("a", "p", "b")
    store = TripleStore([t, t, Triple("a", "p", "b", True)])
    # literal flag distinguishes otherwise equal triples
    assert store.n == 2
    assert repr(store) == "TripleStore(n=2, subjects=1)"
    assert store != object()  # only a store compares equal to a store
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
    with pytest.raises(IngestError) as err:
        CsvMapping("id", (("has temp", "temp"),))
    # in the writer's and CSV ingest's wording
    assert str(err.value) == ("csv_mapping predicate: 'has temp' holds whitespace, '<' or '>', "
                              "which the triple writer cannot write")


def test_a_long_value_is_abridged_in_store_errors():
    long = "x" * 100_000
    calls = [
        lambda: parse_ntriples(f"<{long}> .\n"),
        lambda: serialize_ntriples(TripleStore([Triple("s", "p", long + "\n", True)])),
        lambda: ingest_csv(f"id,temp\n{long} y,20\n", MAPPING),
        lambda: ingest_csv("id,temp\ns1,20\n", CsvMapping("id", (("p", long),))),
        lambda: CsvMapping("id", ((long + " y", "t"),)),
    ]
    for call in calls:
        with pytest.raises(ValueError) as err:
            call()
        assert len(str(err.value)) < 200 and "..." in str(err.value), str(err.value)[:300]


def test_mapping_checks_and_freezes_its_fields_when_built():
    with pytest.raises(IngestError, match=r"^csv_mapping 'subject_column' must be a string, got 5$"):
        CsvMapping(5, (("p", "c"),))
    listed = CsvMapping("id", [["p", "c"]], ["c"])
    frozen = CsvMapping("id", (("p", "c"),), frozenset({"c"}))
    assert listed == frozen
    assert hash(listed) == hash(frozen)


def test_ingested_store_round_trips_through_the_writer():
    text = 'id,label,target\ns1,"a label, quoted",s2\ns2,"say ""hi"" \\\\ back",s1\n'
    mapping = CsvMapping("id", (("label", "label"), ("linksTo", "target")),
                         frozenset({"target"}))
    store = ingest_csv(text, mapping).store
    assert store.n == 4
    assert parse_ntriples(serialize_ntriples(store)) == store


CSV_MAPPING = CsvMapping("id", (("hasTemp", "temp"), ("linksTo", "target")), frozenset({"target"}))


@pytest.mark.parametrize("text, skipped, triples", [
    # a repeated header name reads its last column
    ("id,temp,target,temp\ns1,20,s2,21\ns2,,s1,22\n", 0,
     [("s1", "hasTemp", "21", True), ("s1", "linksTo", "s2", False),
      ("s2", "hasTemp", "22", True), ("s2", "linksTo", "s1", False)]),
    # missing cells read as empty
    ("id,temp,target\ns1,20\ns2\ns3,21,s1\n", 3,
     [("s1", "hasTemp", "20", True), ("s3", "hasTemp", "21", True),
      ("s3", "linksTo", "s1", False)]),
    # blank rows are skipped, and count no skipped cells
    ("id,temp,target\n\ns1,20,s2\n\n\ns2,21,s1\n", 0,
     [("s1", "hasTemp", "20", True), ("s1", "linksTo", "s2", False),
      ("s2", "hasTemp", "21", True), ("s2", "linksTo", "s1", False)]),
    # extra cells are ignored
    ("id,temp,target\ns1,20,s2,x,y\ns2,21,s1,,\n", 0,
     [("s1", "hasTemp", "20", True), ("s1", "linksTo", "s2", False),
      ("s2", "hasTemp", "21", True), ("s2", "linksTo", "s1", False)]),
], ids=["repeated-header", "short-rows", "blank-rows", "extra-cells"])
def test_ingest_reads_rows_as_a_dict_reader_does(text, skipped, triples):
    result = ingest_csv(text, CSV_MAPPING)
    assert result.skipped_cells == skipped
    assert result.store.triples == tuple(Triple(*t) for t in triples)


def test_ingest_error_after_blank_rows_names_the_rows_own_line():
    with pytest.raises(IngestError, match="CSV line 5, column 'target'"):
        ingest_csv("id,temp,target\ns0,1,s1\n\n\ns1,20,<s2>\n", CSV_MAPPING)


def test_quoted_line_break_in_an_unmapped_column_keeps_rows_apart():
    text = 'id,note,temp\ns1,"first\nsecond",20\ns2,x,21\n'
    result = ingest_csv(text, MAPPING)
    assert result.store.triples == (Triple("s1", "hasTemp", "20", True),
                                    Triple("s2", "hasTemp", "21", True))


@pytest.fixture(scope="module")
def builder_calls():
    """Each function that builds a store's triples, on 16k to 20k triples,
    and a call of each that fails, with the error it raises."""
    text = serialize_ntriples(generate_sensor_graph(1, 64, 60))
    rows = "id,t,n\n" + "".join(f"s{i},{i % 97},s{i + 1}\n" for i in range(10_000))
    mapping = CsvMapping("id", [("temp", "t"), ("near", "n")], ["n"])
    return {
        "parse_ntriples": (lambda: parse_ntriples(text), None),
        "parse_ntriples-bad-line": (lambda: parse_ntriples(text + "<a> <p> .\n"), ParseError),
        "ingest_csv": (lambda: ingest_csv(rows, mapping).store, None),
        "ingest_csv-missing-column": (
            lambda: ingest_csv(rows, CsvMapping("id", [("temp", "missing")])), IngestError),
        "generate_sensor_graph": (lambda: generate_sensor_graph(7, 50, 60), None),
        "generate_sensor_graph-negative": (lambda: generate_sensor_graph(7, -1, 60), ValueError),
    }


@pytest.fixture
def collector_restored():
    collecting = gc.isenabled()
    yield
    (gc.enable if collecting else gc.disable)()


BUILDERS = ["parse_ntriples", "ingest_csv", "generate_sensor_graph"]


@pytest.mark.parametrize("name", BUILDERS)
def test_builders_run_no_collection(name, builder_calls, collector_restored):
    build, _ = builder_calls[name]
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.enable()
    gc.callbacks.append(count)
    try:
        store = build()
    finally:
        gc.callbacks.remove(count)
    assert store.n > 15_000
    assert starts == []


@pytest.mark.parametrize("collecting", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("name", [
    "parse_ntriples", "parse_ntriples-bad-line", "ingest_csv", "ingest_csv-missing-column",
    "generate_sensor_graph", "generate_sensor_graph-negative",
])
def test_builders_leave_the_collector_as_they_found_it(
        name, collecting, builder_calls, collector_restored):
    build, error = builder_calls[name]
    (gc.enable if collecting else gc.disable)()
    if error is None:
        build()
    else:
        with pytest.raises(error):
            build()
    assert gc.isenabled() is collecting


@pytest.mark.parametrize("name", BUILDERS)
def test_builders_leave_no_cyclic_garbage(name, builder_calls, collector_restored):
    # what makes pausing the collector safe: a built and dropped store is
    # freed by reference counting alone
    build, _ = builder_calls[name]
    gc.disable()
    gc.collect()
    build()
    assert gc.collect() == 0
