"""In-memory triple store: parsing, serialization, CSV ingestion, and indexes.

The store keeps triples in first-occurrence order and treats the graph as a
set: exact duplicates are dropped on construction. Two hash indexes map
subjects and predicates to triple positions; a sorted numeric index per
predicate is built on first use.

Ingest shares terms: within one ``parse_ntriples`` or ``ingest_csv`` call,
every equal subject, predicate or object string, resource or literal, is one
``str`` object, so a term repeated across many triples is held once. The
lookup table is dropped when ingest returns.

The functions that build a store's triples (``parse_ntriples``,
``ingest_csv`` and ``generator.generate_sensor_graph``) allocate no reference
cycles: tuples of ``str`` and ``bool``, lists of ``int`` and dicts of lists.
So they run with the cyclic garbage collector paused, which would otherwise
re-walk every live ``Triple``, since a ``Triple`` is a tuple subclass and
stays tracked, while freeing nothing. The pause is process-wide while a call
runs: other threads allocate without collections until it returns.

``_entries`` is the library's one check of a JSON object's keys, for the
plan, config, ``csv_mapping`` and workload files alike: a value that is not
an object, a missing key and unknown keys each raise one wording.
``_integer`` is its one check of a count, size or node id, however it is set,
``_number`` of a real number and ``_list`` of a list.
"""

from __future__ import annotations

import csv
import gc
import io
import re
import reprlib
from array import array
from dataclasses import dataclass
from typing import Collection, Iterable, NamedTuple, Sequence


class ParseError(ValueError):
    """A statement line that does not match the triple grammar."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class IngestError(ValueError):
    """Tabular input that cannot be mapped onto triples."""


def _entries(data: object, where: str, keys: Sequence[str], optional: Collection[str] = (),
             error: type[ValueError] = ValueError) -> list:
    """The values of ``keys`` in the JSON object ``data``, None for an absent
    ``optional`` key; an ``error`` names ``where`` and, if ``data`` is an
    object, the first key it lacks or every key it has beyond ``keys``, in
    its own order. Values and keys are shown abridged, so a whole file read
    as a list, or one with many or long unknown keys, makes a short message."""
    if not isinstance(data, dict):
        raise error(f"{where} must be a JSON object, got {reprlib.repr(data)}")
    for key in keys:
        if key not in data and key not in optional:
            raise error(f"{where} has no {key!r} key")
    unknown = [key for key in data if key not in keys]
    if unknown:
        raise error(f"{where} has unknown keys: {reprlib.repr(unknown)[1:-1]}")
    return [data.get(key) for key in keys]


def _integer(value: object, name: str, low: int | None, high: int | None = None, *,
             error: type[ValueError] = ValueError) -> int:
    """``value`` if it is an ``int`` in ``low..high``, a None bound being no
    bound, else an ``error`` naming ``name``, the value abridged. A ``bool``,
    a float such as ``2.0`` and a string of digits are not integers here."""
    if type(value) is not int or (low is not None and value < low) or (high is not None and value > high):
        bound = "" if low is None else f" of at least {low}" if high is None else f" in {low}..{high}"
        raise error(f"{name} must be an integer{bound}, got {reprlib.repr(value)}")
    return value


def _number(value: object, name: str, interval: str = "", inside=None, *,
            error: type[ValueError] = ValueError) -> float:
    """``value`` if it is an ``int`` or ``float`` (not a ``bool``), not NaN, and passes
    ``inside``, the test of ``interval``, if given; else an ``error`` naming ``name``."""
    if type(value) not in (int, float) or value != value or (inside is not None and not inside(value)):
        within = f" in {interval}" if interval else ""
        raise error(f"{name} must be a number{within}, got {reprlib.repr(value)}")
    return value


def _list(value: object, name: str, *, error: type[ValueError] = ValueError) -> tuple:
    """``value`` as a tuple if it is a ``list`` or ``tuple`` (not a string, set or
    iterator), else an ``error`` naming ``name``, the value abridged."""
    if not isinstance(value, (list, tuple)):
        raise error(f"{name} must be a list, got {reprlib.repr(value)}")
    return tuple(value)


class paused_collector:
    """Pauses the cyclic garbage collector inside a ``with`` block.

    Re-entrant: on leaving, the collector is enabled again only if it was
    enabled on entry, whether the block returns or raises. Leaving allocates
    nothing once the collector is back on, so the young collection the pause
    deferred runs at the caller's next allocation, not inside the block.
    """

    __slots__ = ("_collecting",)

    def __enter__(self) -> None:
        self._collecting = gc.isenabled()
        gc.disable()

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._collecting:
            gc.enable()


class Triple(NamedTuple):
    subject: str
    predicate: str
    object: str
    object_is_literal: bool = False


class TripleStore:
    """Immutable, indexed collection of unique triples.

    Positions (0-based offsets into ``triples``) are the canonical way to
    refer to a triple; fragment and replica definitions elsewhere are sets of
    positions into this store.
    """

    __slots__ = ("triples", "subject_index", "predicate_index", "_numeric")

    def __init__(self, triples: Iterable[Triple]):
        self.triples: tuple[Triple, ...] = tuple(dict.fromkeys(triples))
        subject_index: dict[str, list[int]] = {}
        predicate_index: dict[str, list[int]] = {}
        for i, t in enumerate(self.triples):
            subject_index.setdefault(t.subject, []).append(i)
            predicate_index.setdefault(t.predicate, []).append(i)
        if "" in subject_index or "" in predicate_index:
            raise ValueError("triple subject and predicate must be non-empty strings")
        self.subject_index = subject_index
        self.predicate_index = predicate_index
        self._numeric: dict[str, tuple[array, array]] = {}

    def numeric_index(self, predicate: str) -> tuple[array, array]:
        """The predicate's triples whose object ``float()`` reads as a number
        other than NaN, sorted by (value, position): the values as
        ``array('d')`` and the positions as ``array('I')``.

        Built on the first call for each predicate and cached on the store.
        """
        cache = self._numeric
        index = cache.get(predicate)
        if index is None:
            values, positions = [], []
            for pos in self.predicate_index.get(predicate, ()):
                try:
                    value = float(self.triples[pos].object)
                except ValueError:
                    continue
                if value == value:  # NaN lies in no range and has no order
                    values.append(value)
                    positions.append(pos)
            # a stable sort by value keeps equal values in position order, and
            # sorting indexes makes no (value, position) tuple per entry
            order = sorted(range(len(values)), key=values.__getitem__)
            index = cache[predicate] = (
                array("d", map(values.__getitem__, order)),
                array("I", map(positions.__getitem__, order)),
            )
        return index

    def subject_links(self) -> dict[str, list[int]]:
        """Per subject with a link, in ``subject_index`` order, the ascending
        positions of its triples whose object is a resource, not the subject
        itself, heading a subject group. Built on every call, not cached."""
        triples, index = self.triples, self.subject_index
        links: dict[str, list[int]] = {}
        for s, positions in index.items():
            if linked := [pos for pos in positions if not (t := triples[pos]).object_is_literal
                          and t.object != s and t.object in index]:
                links[s] = linked
        return links

    @property
    def n(self) -> int:
        return len(self.triples)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TripleStore):
            return NotImplemented
        return self.triples == other.triples

    def __repr__(self) -> str:
        return f"TripleStore(n={self.n}, subjects={len(self.subject_index)})"


_RESOURCE = r"<([^<>\s]+)>"
# unrolled: runs of plain characters between escapes, not one
# alternation per character
_LITERAL = r'"([^"\\]*(?:\\.[^"\\]*)*)"'
_LINE_RE = re.compile(rf"^{_RESOURCE}\s+{_RESOURCE}\s+(?:{_RESOURCE}|{_LITERAL})\s*\.$")
# the writer's line shape, tried before _LINE_RE: single spaces, and
# resources of printable ASCII without space, '<' or '>', a range class that
# matches faster than the Unicode class [^<>\s]. Every line it matches,
# _LINE_RE matches with the same groups.
_WRITTEN_RESOURCE = r"<([!-;=?-~]+)>"
_WRITTEN_LINE = re.compile(
    rf"{_WRITTEN_RESOURCE} {_WRITTEN_RESOURCE} (?:{_WRITTEN_RESOURCE}|{_LITERAL}) \.$"
)

# what a resource term cannot hold, and the line breaks str.splitlines splits on
_NOT_IN_RESOURCE = re.compile(r"[\s<>]").search
_LINE_BREAK = re.compile("[\n\r\v\f\x1c-\x1e\x85\u2028\u2029]").search


def _unwritable_reason(value: str, is_literal: bool) -> str | None:
    """Why the triple writer cannot write the term, or None if it can: the
    one rule for what ``serialize_ntriples``, ``ingest_csv`` and
    ``CsvMapping`` accept, and what ``parse_ntriples`` reads back."""
    if is_literal:
        return "holds a line break" if _LINE_BREAK(value) else None
    if not value:
        return "is empty"
    return "holds whitespace, '<' or '>'" if _NOT_IN_RESOURCE(value) else None


def _unwritable(where: str, value: str, reason: str) -> str:
    return f"{where}: {reprlib.repr(value)} {reason}, which the triple writer cannot write"


def _unescape_literal(raw: str) -> str:
    return raw.replace('\\"', '"').replace("\\\\", "\\")


def _escape_literal(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def parse_ntriples(text: str) -> TripleStore:
    """Parse line-oriented triple statements into a store.

    Each statement is ``<s> <p> <o> .`` or ``<s> <p> "literal" .`` on one
    line. Blank lines and lines starting with ``#`` are ignored. Exact
    duplicate statements collapse to one triple. A malformed line raises
    :class:`ParseError` carrying the 1-based line number.
    """
    with paused_collector():
        term = {}.setdefault
        written, statement = _WRITTEN_LINE.match, _LINE_RE.match
        new = tuple.__new__  # builds a Triple without its Python-level __new__
        triples: list[Triple] = []
        for line_number, raw in enumerate(text.splitlines(), start=1):
            m = written(raw)
            if m is None:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                m = statement(line)
                if m is None:
                    raise ParseError(f"malformed statement: {reprlib.repr(line)}", line_number)
            subject, predicate, resource_obj, literal_obj = m.groups()
            if resource_obj is not None:
                obj, is_literal = resource_obj, False
            else:
                obj, is_literal = _unescape_literal(literal_obj), True
            triples.append(new(Triple, (term(subject, subject), term(predicate, predicate),
                                        term(obj, obj), is_literal)))
        return TripleStore(triples)


def serialize_ntriples(store: TripleStore) -> str:
    """Render the store back to statement lines in store order.

    ``parse_ntriples(serialize_ntriples(s))`` reproduces ``s`` exactly, and
    equal stores serialize to byte-identical text. A term that would write a
    line ``parse_ntriples`` rejects (see ``_unwritable_reason``) raises a
    ValueError naming the triple's position, the term and the reason.
    Subjects and predicates are checked once each, from the indexes.
    """
    for role, index in (("subject", store.subject_index), ("predicate", store.predicate_index)):
        for term, positions in index.items():
            if reason := _unwritable_reason(term, False):
                raise ValueError(_unwritable(f"triple {positions[0]}, {role}", term, reason))
    lines = []
    for pos, (s, p, o, is_literal) in enumerate(store.triples):
        # a printable literal holds no line break, and isprintable is cheap
        if not (is_literal and o.isprintable()) and (reason := _unwritable_reason(o, is_literal)):
            raise ValueError(_unwritable(f"triple {pos}, object", o, reason))
        lines.append(f'<{s}> <{p}> "{_escape_literal(o)}" .' if is_literal
                     else f"<{s}> <{p}> <{o}> .")
    return "".join(line + "\n" for line in lines)


@dataclass(frozen=True)
class CsvMapping:
    """How to turn tabular rows into triples; checked when built.

    ``subject_column`` names the column holding the subject identifier and
    ``properties`` pairs a predicate name with the column providing its
    object value. Columns listed in ``resource_columns`` yield resource
    objects; every other mapped object is a literal. Lists are accepted and
    stored as a tuple of pairs and a frozenset, so a mapping can be hashed.
    """

    subject_column: str
    properties: tuple[tuple[str, str], ...]
    resource_columns: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if not isinstance(self.subject_column, str):
            raise IngestError("csv_mapping 'subject_column' must be a string, "
                              f"got {reprlib.repr(self.subject_column)}")
        pairs = _list(self.properties, "csv_mapping 'properties'", error=IngestError)
        for i, pair in enumerate(pairs):
            name = f"csv_mapping 'properties'[{i}]"
            if len(_list(pair, name, error=IngestError)) != 2 or not all(isinstance(x, str) for x in pair):
                raise IngestError(f"{name} must be a pair of strings, got {reprlib.repr(pair)}")
        resources = self.resource_columns
        if not isinstance(resources, (list, tuple, set, frozenset)) or not all(
            isinstance(col, str) for col in resources
        ):
            raise IngestError("csv_mapping 'resource_columns' must be a list of column names, "
                              f"got {reprlib.repr(resources)}")
        object.__setattr__(self, "properties", tuple(map(tuple, pairs)))
        object.__setattr__(self, "resource_columns", frozenset(resources))
        for predicate, _ in self.properties:
            if reason := _unwritable_reason(predicate, False):
                raise IngestError(_unwritable("csv_mapping predicate", predicate, reason))


@dataclass
class CsvIngestResult:
    store: TripleStore
    skipped_cells: int


def ingest_csv(source: str, mapping: CsvMapping) -> CsvIngestResult:
    """Convert header-bearing CSV rows into triples, one per mapped cell.

    Empty object cells are skipped and counted; a row with an empty subject
    cell skips all of its mapped cells. Quoted cells may span lines. A mapped
    column missing from the header raises :class:`IngestError` naming the
    column. So does a subject or mapped cell that ``serialize_ntriples``
    could not write back, naming also the CSV line on which the row ends.
    """
    with paused_collector():
        reader = csv.reader(io.StringIO(source, newline=""))
        # cells are read as csv.DictReader reads them: a repeated header name
        # reads its last column, missing cells read as empty, extra cells are
        # ignored and blank rows skipped
        index = {name: i for i, name in enumerate(next(reader, []))}
        needed = [mapping.subject_column] + [col for _, col in mapping.properties]
        for col in needed:
            if col not in index:
                raise IngestError(f"mapped column {reprlib.repr(col)} not found in CSV header")

        term = {}.setdefault
        subject_at = index[mapping.subject_column]
        cells = [(term(p, p), col, index[col], col not in mapping.resource_columns)
                 for p, col in mapping.properties]
        padding = [""] * (max(index[col] for col in needed) + 1)
        new = tuple.__new__  # builds a Triple without its Python-level __new__
        triples: list[Triple] = []
        skipped = 0
        for row in reader:
            if len(row) < len(padding):
                if not row:
                    continue
                row += padding[len(row):]
            subject = row[subject_at].strip()
            if not subject:
                skipped += len(mapping.properties)
                continue
            if reason := _unwritable_reason(subject, False):
                raise IngestError(_unwritable(
                    f"CSV line {reader.line_num}, column {mapping.subject_column!r}", subject, reason))
            subject = term(subject, subject)
            for predicate, column, at, is_literal in cells:
                value = row[at].strip()
                if not value:
                    skipped += 1
                    continue
                # a printable literal holds no line break, and isprintable is cheap
                if not (is_literal and value.isprintable()) and (
                        reason := _unwritable_reason(value, is_literal)):
                    raise IngestError(_unwritable(
                        f"CSV line {reader.line_num}, column {column!r}", value, reason))
                triples.append(new(Triple, (subject, predicate, term(value, value), is_literal)))
        return CsvIngestResult(TripleStore(triples), skipped)
