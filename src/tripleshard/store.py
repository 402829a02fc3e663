"""In-memory triple store: parsing, serialization, CSV ingestion, and indexes.

The store keeps triples in first-occurrence order and treats the graph as a
set: exact duplicates are dropped on construction. Two hash indexes map
subjects and predicates to triple positions; a sorted numeric index per
predicate is built on first use.
"""

from __future__ import annotations

import csv
import io
import re
from array import array
from dataclasses import dataclass
from typing import Iterable, NamedTuple


class ParseError(ValueError):
    """A statement line that does not match the triple grammar."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class IngestError(ValueError):
    """Tabular input that cannot be mapped onto triples."""


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

    # _numeric is made by the first numeric_index call: an empty dict per
    # store made in __init__ raised the peak RSS of 200k-triple layout builds
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

    def numeric_index(self, predicate: str) -> tuple[array, array]:
        """The predicate's triples whose object ``float()`` reads as a number
        other than NaN, sorted by (value, position): the values as
        ``array('d')`` and the positions as ``array('I')``.

        Built on the first call for each predicate and cached on the store.
        """
        try:
            cache = self._numeric
        except AttributeError:
            cache = self._numeric = {}
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
_LITERAL = r'"((?:[^"\\]|\\.)*)"'
_LINE_RE = re.compile(rf"^{_RESOURCE}\s+{_RESOURCE}\s+(?:{_RESOURCE}|{_LITERAL})\s*\.$")


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
    triples: list[Triple] = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _LINE_RE.match(line)
        if m is None:
            raise ParseError(f"malformed statement: {line!r}", line_number)
        subject, predicate, resource_obj, literal_obj = m.groups()
        if resource_obj is not None:
            triples.append(Triple(subject, predicate, resource_obj, False))
        else:
            triples.append(Triple(subject, predicate, _unescape_literal(literal_obj), True))
    return TripleStore(triples)


def serialize_ntriples(store: TripleStore) -> str:
    """Render the store back to statement lines in store order.

    ``parse_ntriples(serialize_ntriples(s))`` reproduces ``s`` exactly, and
    equal stores serialize to byte-identical text.
    """
    lines = []
    for t in store.triples:
        if t.object_is_literal:
            lines.append(f'<{t.subject}> <{t.predicate}> "{_escape_literal(t.object)}" .')
        else:
            lines.append(f"<{t.subject}> <{t.predicate}> <{t.object}> .")
    return "".join(line + "\n" for line in lines)


# what a resource term cannot hold, and the line breaks str.splitlines splits on
_NOT_IN_RESOURCE = re.compile(r"[\s<>]").search
_LINE_BREAK = re.compile("[\n\r\v\f\x1c-\x1e\x85\u2028\u2029]").search


@dataclass(frozen=True)
class CsvMapping:
    """How to turn tabular rows into triples; checked when built.

    ``subject_column`` names the column holding the subject identifier and
    ``properties`` pairs a predicate name with the column providing its
    object value. Columns listed in ``resource_columns`` yield resource
    objects; every other mapped object is a literal.
    """

    subject_column: str
    properties: tuple[tuple[str, str], ...]
    resource_columns: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        for predicate, _ in self.properties:
            if not predicate or _NOT_IN_RESOURCE(predicate):
                raise IngestError(
                    f"predicate {predicate!r} must be a name without whitespace, '<' or '>'"
                )


def _unwritable(line: int, column: str, value: str, is_literal: bool) -> IngestError:
    held = "a line break" if is_literal else "whitespace, '<' or '>'"
    return IngestError(
        f"CSV line {line}, column {column!r}: {value!r} holds {held}, "
        f"which the triple writer cannot write"
    )


@dataclass
class CsvIngestResult:
    store: TripleStore
    skipped_cells: int


def ingest_csv(source: str, mapping: CsvMapping) -> CsvIngestResult:
    """Convert header-bearing CSV rows into triples, one per mapped cell.

    Empty object cells are skipped and counted; a row with an empty subject
    cell skips all of its mapped cells. Quoted cells may span lines. A mapped
    column missing from the header raises :class:`IngestError` naming the
    column. So does what ``serialize_ntriples`` could not write back, naming
    also the CSV line on which the row ends: a subject or resource cell
    holding whitespace, ``<`` or ``>``, or a literal cell holding a line
    break.
    """
    reader = csv.DictReader(io.StringIO(source, newline=""))
    header = reader.fieldnames or []
    needed = [mapping.subject_column] + [col for _, col in mapping.properties]
    for col in needed:
        if col not in header:
            raise IngestError(f"mapped column {col!r} not found in CSV header")

    cells = [(p, col, col not in mapping.resource_columns) for p, col in mapping.properties]
    triples: list[Triple] = []
    skipped = 0
    for row in reader:
        subject = (row.get(mapping.subject_column) or "").strip()
        if not subject:
            skipped += len(mapping.properties)
            continue
        if _NOT_IN_RESOURCE(subject):
            raise _unwritable(reader.line_num, mapping.subject_column, subject, False)
        for predicate, column, is_literal in cells:
            value = (row.get(column) or "").strip()
            if not value:
                skipped += 1
                continue
            if is_literal:  # a printable value holds no line break; isprintable is cheap
                unwritable = not value.isprintable() and _LINE_BREAK(value)
            else:
                unwritable = _NOT_IN_RESOURCE(value)
            if unwritable:
                raise _unwritable(reader.line_num, column, value, is_literal)
            triples.append(Triple(subject, predicate, value, is_literal))
    return CsvIngestResult(TripleStore(triples), skipped)
