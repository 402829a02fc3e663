"""Pattern queries, centralized and distributed evaluation, locality metrics.

Two deliberately independent evaluation routes exist. The centralized route
matches every pattern against the whole store and hash-joins the match
relations on their shared variables; it is the correctness reference. The
distributed route simulates execution over a deployment plan with
index-nested-loop propagation, in one function, ``_evaluate``: it runs one
pass per query over the whole cluster and prices every candidate home node
from it, because the home's own pass over its visible triples (owned plus
replicas) is the cluster pass restricted to them. Bindings from the
distributed route always equal the centralized reference because every
triple is owned somewhere.

The two routes also match patterns separately. The reference runs the generic
matcher, which tests every term of every candidate triple. The distributed
route reads each pattern's form once, from the query, so a value a row bound
is a constant whatever its text, and matches the form that linear, star and
snowflake queries send, ``(S, P, ?o)``, without a per-triple test; any other
form goes to the generic matcher. A fault in the fast form therefore shows as
a binding that differs from the reference.

The distributed route compiles the query, once per call, into variable
slots: a row is a tuple of values in slot order, every match is the tuple
of values it binds, in slot order, and extends a row as ``row + values``; a
binding is its row's tuple. The index entries examined are counted with one
histogram per probe reach. ``_evaluate`` returns the rows with their slots
and the homes' outcomes; bindings are named once, from the rows, in
``evaluate_distributed``, and ``inc_report`` reads the outcomes alone.

A range scan ``?s P ?o`` builds no rows in the distributed route: its costs
are read from a per-plan range summary of ``P``, built on the first scan of
``P`` and cached on the plan, with two bisects per node. Its rows are the
triples of its in-range slice, read only when ``evaluate_distributed`` names
them.

A query is answered locally when the home node's visible triples alone
reproduce the reference bindings. The latency proxy charges the triples
scanned plus a flat penalty per additional node touched; it is a relative
cost signal, not a wall-clock estimate.
"""

from __future__ import annotations

import json
import random
import reprlib
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Mapping, NamedTuple, Sequence

from .plan import PartitionPlan
from .store import TripleStore, _entries, _integer, _list, _number

SHAPES = ("linear", "star", "range", "snowflake")

# flat cost added per node touched beyond the first
HOP_PENALTY = 100

Binding = tuple[tuple[str, str], ...]


def is_variable(term: str) -> bool:
    return term.startswith("?")


class TriplePattern(NamedTuple):
    """A triple whose terms may be variables (``?name``)."""

    subject: str
    predicate: str
    object: str


@dataclass(frozen=True)
class RangeFilter:
    """The numeric band ``low <= value <= high`` of a range query; checked
    when built, and its bounds are stored as floats."""

    predicate: str
    low: float
    high: float

    def __post_init__(self) -> None:
        for key in ("low", "high"):
            object.__setattr__(self, key, float(_number(getattr(self, key), f"filter {key!r}")))
        if self.low > self.high:
            raise ValueError("range filter bounds are inverted")


@dataclass(frozen=True)
class QueryPattern:
    """A query of one of the four shapes; checked when built, so every
    QueryPattern in hand is valid. A list of patterns is stored as a tuple,
    so a query can be hashed."""

    shape: str
    patterns: tuple[TriplePattern, ...]
    range_filter: RangeFilter | None = None

    def __post_init__(self) -> None:
        if self.shape not in SHAPES:
            raise ValueError(f"unknown query shape {reprlib.repr(self.shape)}")
        patterns = _list(self.patterns, "patterns")
        if not patterns:
            raise ValueError("query must contain at least one pattern")
        for i, pat in enumerate(patterns):
            if not isinstance(pat, TriplePattern):
                raise ValueError(f"patterns[{i}] must be a TriplePattern, got {reprlib.repr(pat)}")
            for term in pat:
                if not isinstance(term, str) or not term:
                    raise ValueError(f"pattern terms must be non-empty strings, got {reprlib.repr(term)}")
        object.__setattr__(self, "patterns", patterns)
        if self.range_filter is not None and not isinstance(self.range_filter, RangeFilter):
            raise ValueError(f"range_filter must be a RangeFilter or None, got {reprlib.repr(self.range_filter)}")
        if self.shape == "range":
            if len(self.patterns) != 1:
                raise ValueError("range queries hold exactly one pattern")
            if self.range_filter is None:
                raise ValueError("range queries require a numeric filter")
            if self.range_filter.predicate != self.patterns[0].predicate:
                raise ValueError("range filter must target the pattern's predicate")
        else:
            if self.range_filter is not None:
                raise ValueError(f"{self.shape} queries do not take a range filter")
        if self.shape == "linear":
            for left, right in zip(self.patterns, self.patterns[1:]):
                if not is_variable(left.object) or left.object != right.subject:
                    raise ValueError("chain patterns must link object variable to next subject")
        if self.shape == "star":
            centre = self.patterns[0].subject
            if any(p.subject != centre for p in self.patterns):
                raise ValueError("star patterns must share one subject term")
        if self.shape == "snowflake":
            centre = self.patterns[0].subject
            prefix = 0
            for p in self.patterns:
                if p.subject != centre:
                    break
                prefix += 1
            if len(self.patterns) >= 2 and prefix < 2:
                raise ValueError("snowflake queries need at least two patterns on the centre")
            bound_objects = {p.object for p in self.patterns[:prefix] if is_variable(p.object)}
            for p in self.patterns[prefix:]:
                if p.subject not in bound_objects:
                    raise ValueError("snowflake tail patterns must chain off an earlier object variable")
                if is_variable(p.object):
                    bound_objects.add(p.object)


class QueryOutcome(NamedTuple):
    """One query's cost when routed to ``home_node``: what the cluster pass
    measured for that home."""

    home_node: int
    nodes_touched: int
    locally_answered: bool
    triples_scanned: int

    @property
    def qet_proxy(self) -> int:
        """The latency proxy: the triples scanned plus ``HOP_PENALTY`` per
        node touched beyond the first."""
        return self.triples_scanned + HOP_PENALTY * (self.nodes_touched - 1)


@dataclass
class QueryResult:
    """A query's bindings, and from ``evaluate_distributed`` its cost at the
    home; the reference, ``evaluate_centralized``, answers without a cost,
    so its ``metrics`` is None."""

    bindings: frozenset[Binding]
    metrics: QueryOutcome | None


def _bind(triple, s: str, p: str, o: str, free: tuple[bool, ...]) -> dict[str, str] | None:
    row: dict[str, str] = {}
    for term, value, var in zip((s, p, o), triple, free):
        if var:
            if term in row and row[term] != value:
                return None
            row[term] = value
        elif term != value:
            return None
    return row


def _pattern_matches(
    store: TripleStore, s: str, p: str, o: str, free: tuple[bool, ...]
) -> tuple[Sequence[int], list[tuple[int, dict[str, str]]]]:
    """Match one (possibly partially bound) pattern against the store.

    ``free`` marks each unbound variable; any other term is a constant.
    Candidates come from the subject index when the subject is constant, then
    the predicate index; a constant object alone falls back to a full scan
    because objects are unindexed. Returns the candidates and the matches.
    """
    if not free[0]:
        candidates: Sequence[int] = store.subject_index.get(s, ())
    elif not free[1]:
        candidates = store.predicate_index.get(p, ())
    else:
        candidates = range(store.n)
    matches: list[tuple[int, dict[str, str]]] = []
    for pos in candidates:
        row = _bind(store.triples[pos], s, p, o, free)
        if row is not None:
            matches.append((pos, row))
    return candidates, matches


def _probe_matches(
    store: TripleStore, seen_by: Sequence[int], s: str, p: str, o: str, free: tuple[bool, ...]
) -> tuple[Sequence[int], list[tuple]]:
    """The distributed route's matcher: the candidates ``_pattern_matches``
    examines and, in its order, each match as ``(values, mask)``: the values
    it binds, each variable first seen in the pattern in term order, and the
    ``seen_by`` mask of its position.

    The probe form of linear, star and snowflake queries, ``(S, P, ?o)``, is
    matched without a per-triple ``_bind``, as the subject's candidates whose
    predicate is ``P``; its one free variable is the object.
    """
    if free == (False, False, True):
        triples = store.triples
        candidates = store.subject_index.get(s, ())
        matches = []  # a loop, not a comprehension: one frame less per probe
        for pos in candidates:
            t = triples[pos]
            if t.predicate == p:
                matches.append(((t.object,), seen_by[pos]))
        return candidates, matches
    candidates, matches = _pattern_matches(store, s, p, o, free)
    return candidates, [(tuple(row.values()), seen_by[pos]) for pos, row in matches]


def _in_range(f: RangeFilter, value: str) -> bool:
    try:
        x = float(value)
    except ValueError:
        return False
    return f.low <= x <= f.high


def _apply_range(rows: list[dict[str, str]], q: QueryPattern) -> list[dict[str, str]]:
    f = q.range_filter
    if f is None:
        return rows
    term = q.patterns[0].object
    return [row for row in rows if _in_range(f, row.get(term, term))]


def _freeze(rows: list[dict[str, str]]) -> frozenset[Binding]:
    return frozenset(tuple(sorted(row.items())) for row in rows)


def _hash_join(left: list[dict], right: list[dict]) -> list[dict]:
    if not left or not right:
        return []
    shared = sorted(set(left[0]).intersection(right[0]))
    if not shared:
        return [{**l, **r} for l in left for r in right]
    index: dict[tuple, list[dict]] = {}
    for l in left:
        index.setdefault(tuple(l[v] for v in shared), []).append(l)
    out = []
    for r in right:
        for l in index.get(tuple(r[v] for v in shared), ()):
            out.append({**l, **r})
    return out


def evaluate_centralized(store: TripleStore, q: QueryPattern) -> QueryResult:
    """Reference evaluation: full per-pattern match, then hash joins. It
    gives bindings only; a cost comes from ``evaluate_distributed``. A
    literal/resource twin repeats its rows through the joins, and ``_freeze``
    keeps one."""
    rows: list[dict[str, str]] | None = None
    for pat in q.patterns:
        _, matches = _pattern_matches(store, *pat, tuple(map(is_variable, pat)))
        relation = [row for _, row in matches]
        rows = relation if rows is None else _hash_join(rows, relation)
    return QueryResult(_freeze(_apply_range(rows or [], q)), None)


class _RangeReach(NamedTuple):
    """What a range scan ``?s P ?o`` reads of one plan and store.

    ``counts`` is the ``seen_by`` histogram of P's candidates, all of which
    the scan examines and matches. ``blind`` holds, per node, the sorted
    offsets into ``numeric_index(P)`` whose binding that node cannot build
    alone; a literal/resource twin's reach is ORed in, as the twins share
    one binding. A node builds every binding of the slice ``[lo, hi)`` alone
    exactly when none of its offsets lies in it.
    """

    counts: Counter[int]
    blind: tuple[array, ...]


def _range_reach(store: TripleStore, plan: PartitionPlan, p: str) -> _RangeReach:
    """The plan's range summary of ``p``, built on first use and cached on
    the plan for ``store``."""
    cache = plan.store_cache(store)
    summary = cache.get(p)
    if summary is None:
        seen_by, triples = plan.seen_by, store.triples
        _, positions = store.numeric_index(p)
        keys = [(triples[pos].subject, triples[pos].object) for pos in positions]
        shared: dict[tuple[str, str], int] = {}
        for key, pos in zip(keys, positions):
            shared[key] = shared.get(key, 0) | seen_by[pos]
        reach = list(map(shared.__getitem__, keys))
        summary = cache[p] = _RangeReach(
            Counter(map(seen_by.__getitem__, store.predicate_index.get(p, ()))),
            tuple(
                array("I", [i for i, r in enumerate(reach) if not r >> node & 1])
                for node in range(plan.m)
            ),
        )
    return summary


def _evaluate(
    store: TripleStore, plan: PartitionPlan, q: QueryPattern, homes: Sequence[int]
) -> tuple[Mapping[str, int], Iterable[Sequence[str]], list[QueryOutcome]]:
    """One cluster-wide pass of ``q``: each variable's slot, the bindings'
    rows, unnamed, and the query's cost from each of ``homes``, node ids the
    caller checked.

    The pass is an index-nested-loop evaluation with binding propagation. The
    query is compiled once: each variable takes the next slot when a pattern
    first binds it, and each term of a pattern is read once as a constant, a
    bound slot or free. A row is the tuple of its slots' values, and a match
    extends it as ``row + values``, the values the match binds in slot order;
    rows with equal tuples are one binding, which is how a literal/resource
    twin collapses. Probes are memoized by their substituted terms, a free
    term by its name, and form, so a repeated lookup is examined, and
    charged, once, while the star legs ``(a, p, ?x)`` and ``(a, p, ?y)`` are
    two. Rows are not deduplicated between patterns: distinct triples extend
    a row distinctly.

    Each row carries its reach, the AND of ``seen_by`` over the positions
    that built it: the nodes that could build it alone. The pass leaves three
    figures: ``everywhere``, the nodes that could build every binding alone,
    the AND over bindings of the OR of their rows' reach; ``counts``, per
    probe reach (the OR of the reach of the rows that sent a probe), the
    ``seen_by`` histogram of the candidates examined; and ``served``, the
    ``seen_by`` masks of the matched positions.

    A range scan ``?s P ?o`` builds no rows. Two bisects find the in-range
    slice of the store's numeric index of ``P``, and two more per node, into
    the plan's range summary of ``P`` (``_range_reach``), tell whether that
    node could build the slice's bindings alone. Like the generic path, it
    examines, and matches, every candidate of ``P``. Its rows are the slice's
    triples, with slots 0 and 2 for the subject and object variables, read
    only when ``evaluate_distributed`` names them; a literal/resource twin
    yields its row twice.

    A home's own pass over its visible triples is the cluster pass restricted
    to them, so each home is priced from the one pass: the home scans the
    visible candidates of the probes sent by rows within its reach. When
    every binding has such a row the query is local and costs that scan
    alone. Otherwise every node whose data served a match is counted, and the
    cluster candidates the home cannot see are added to the cost.
    """
    f, (s, p, term) = q.range_filter, q.patterns[0]
    if f is not None and is_variable(s) and is_variable(term) and s != term and not is_variable(p):
        values, positions = store.numeric_index(p)
        lo, hi = bisect_left(values, f.low), bisect_right(values, f.high)
        summary = _range_reach(store, plan, p)
        everywhere = 0
        for node, blind in enumerate(summary.blind):
            if bisect_left(blind, lo) == bisect_left(blind, hi):
                everywhere |= 1 << node
        slots = {s: 0, term: 2}
        rows = map(store.triples.__getitem__, islice(positions, lo, hi))
        # one probe, sent from every node, examines and matches every candidate
        counts, served = {-1: summary.counts}, summary.counts
    else:
        seen_by = plan.seen_by
        slots = {}  # each variable's slot, in the order bound
        rows = [((), -1)]  # all bits set: every node starts
        probes: dict[tuple, list] = {}  # [candidates, matches, reach]
        for s, p, o in q.patterns:
            # each term read once: a bound slot, or else a constant or free (a
            # variable, is_variable inlined on this hot path, not yet bound); a
            # free term keys its probe by its text
            rs, rp, ro = slots.get(s), slots.get(p), slots.get(o)
            free = (s[0] == "?" and rs is None, p[0] == "?" and rp is None, o[0] == "?" and ro is None)
            if free == (False, False, True):  # the probe form binds its object alone
                slots[o] = len(slots)
            else:
                for name, var in zip((s, p, o), free):
                    if var and name not in slots:
                        slots[name] = len(slots)
            next_rows: list[tuple[tuple[str, ...], int]] = []
            append = next_rows.append
            for row, reach in rows:
                key = (s if rs is None else row[rs], p if rp is None else row[rp],
                       o if ro is None else row[ro], free)
                probe = probes.get(key)
                if probe is None:
                    probe = probes[key] = [*_probe_matches(store, seen_by, *key), 0]
                probe[2] |= reach
                for values, mask in probe[1]:
                    append((row + values, reach & mask))
            rows = next_rows
            if not rows:
                break
        # a binding is its row's values: literal/resource twins share one
        bindings: dict[tuple[str, ...], int] = {}
        value = slots.get(term)  # the filtered term's slot, None when constant
        for row, reach in rows:
            if f is None or _in_range(f, term if value is None else row[value]):
                bindings[row] = bindings.get(row, 0) | reach
        rows = bindings
        # candidates counted once per probe reach, then by position mask
        by_reach: dict[int, list[Sequence[int]]] = {}
        for candidates, _, reach in probes.values():
            by_reach.setdefault(reach, []).append(candidates)
        counts = {
            reach: Counter([seen_by[pos] for candidates in lists for pos in candidates])
            for reach, lists in by_reach.items()
        }
        served = {mask for _, matches, _ in probes.values() for _, mask in matches}
        # when no node is left, as for most queries on a spread layout, the rest
        # of the bindings need not be read
        everywhere = -1
        for reach in bindings.values():
            everywhere &= reach
            if not everywhere:
                break
    outcomes = []
    for home in homes:
        bit = 1 << home
        scanned = remote = 0
        for reach, by_mask in counts.items():
            for mask, n in by_mask.items():
                if not mask & bit:
                    remote += n
                elif reach & bit:
                    scanned += n
        locally_answered = bool(everywhere & bit)
        if locally_answered:
            nodes_touched = 1
        else:  # a position the home cannot see is unreplicated: one bit, its owner's
            nodes_touched = len({home if mask & bit else mask.bit_length() - 1 for mask in served})
            scanned += remote
        outcomes.append(QueryOutcome(home, nodes_touched, locally_answered, scanned))
    return slots, rows, outcomes


def evaluate_distributed(
    store: TripleStore, plan: PartitionPlan, q: QueryPattern, home_node: int
) -> QueryResult:
    """Simulate evaluation routed to ``home_node`` under the given plan.

    Returned bindings are always the cluster-wide (reference-equal) bindings,
    named here, the one place the pass's rows are named: each row becomes
    its variables' ``(name, value)`` pairs in name order, and with no
    variable, the empty binding.
    """
    _integer(home_node, "home_node", 0, plan.m - 1)
    slots, rows, (outcome,) = _evaluate(store, plan, q, (home_node,))
    named = [(name, slots[name]) for name in sorted(slots)]
    bindings = frozenset(tuple((name, row[slot]) for name, slot in named) for row in rows)
    return QueryResult(bindings, outcome)


# ---------------------------------------------------------------------------
# workload generation

DEFAULT_WORKLOAD_COUNTS = (3, 4, 3, 2)


def _workload_counts(counts: object, name: str) -> tuple[int, ...]:
    """``counts`` as a tuple if it is a list or tuple of one integer of at
    least 0 per shape, in ``SHAPES`` order, else a ValueError naming ``name``."""
    if len(_list(counts, name)) != len(SHAPES):
        raise ValueError(f"{name} must be a list of one entry per shape {SHAPES}, got {reprlib.repr(counts)}")
    return tuple(_integer(c, f"{name}[{i}]", 0) for i, c in enumerate(counts))


def generate_workload(
    store: TripleStore, seed: int, counts: Sequence[int] = DEFAULT_WORKLOAD_COUNTS
) -> list[QueryPattern]:
    """Sample a deterministic mixed workload from the store's own contents.

    ``counts`` gives how many linear, star, range, and snowflake queries to
    build, in that order. Constants are drawn from the data so queries are
    non-empty wherever the store's structure allows it; shapes degrade to
    their minimal valid form on stores lacking the needed structure. Linear
    and snowflake queries follow a link from ``TripleStore.subject_links``.
    """
    if store.n == 0:
        raise ValueError("cannot build a workload over an empty store")
    counts = _workload_counts(counts, "counts")

    rng = random.Random(seed)

    triples, links = store.triples, store.subject_links()
    predicates = {s: tuple(dict.fromkeys([triples[pos].predicate for pos in positions]))
                  for s, positions in store.subject_index.items()}
    linear_roots = list(links)
    star_centres = [s for s, ps in predicates.items() if len(ps) >= 2]
    snowflake_roots = [s for s in links if len(predicates[s]) >= 2]
    range_bounds: list[tuple[str, float, float]] = []  # (predicate, quartiles) by name
    if counts[2]:  # only range queries read them
        for predicate in sorted(store.predicate_index):
            values, _ = store.numeric_index(predicate)
            if values:
                range_bounds.append((predicate, values[len(values) // 4], values[(3 * len(values)) // 4]))

    first_subject = triples[0].subject
    fallback_predicate = triples[0].predicate

    def make_linear() -> QueryPattern:
        if linear_roots:
            root = rng.choice(linear_roots)
            _, predicate, obj, _ = triples[rng.choice(links[root])]
            second = rng.choice(predicates[obj])
            patterns = (
                TriplePattern(root, predicate, "?h1"),
                TriplePattern("?h1", second, "?h2"),
            )
        else:
            patterns = (TriplePattern(first_subject, fallback_predicate, "?h1"),)
        return QueryPattern("linear", patterns)

    def make_star() -> QueryPattern:
        centre = rng.choice(star_centres) if star_centres else first_subject
        options = predicates[centre]
        legs = rng.sample(options, min(len(options), rng.randint(2, 3)))
        patterns = tuple(
            TriplePattern(centre, p, f"?v{i}") for i, p in enumerate(legs)
        )
        return QueryPattern("star", patterns)

    def make_range() -> QueryPattern:
        if range_bounds:
            predicate, low, high = rng.choice(range_bounds)
        else:
            predicate = fallback_predicate
            low = high = 0.0
        return QueryPattern(
            "range",
            (TriplePattern("?s", predicate, "?value"),),
            RangeFilter(predicate, low, high),
        )

    def make_snowflake() -> QueryPattern:
        if snowflake_roots:
            root = rng.choice(snowflake_roots)
            _, link_pred, obj, _ = triples[rng.choice(links[root])]
            # one of the root's other predicates (it has two or more), by index
            options = predicates[root]
            i = rng.randrange(len(options) - 1)
            leg = options[i + (i >= options.index(link_pred))]
            tail = rng.choice(predicates[obj])
            patterns = (
                TriplePattern(root, leg, "?a"),
                TriplePattern(root, link_pred, "?b"),
                TriplePattern("?b", tail, "?c"),
            )
        else:
            patterns = (
                TriplePattern(first_subject, fallback_predicate, "?a"),
            )
        return QueryPattern("snowflake", patterns)

    makers = (make_linear, make_star, make_range, make_snowflake)
    return [maker() for maker, count in zip(makers, counts) for _ in range(count)]


def query_to_dict(q: QueryPattern) -> dict:
    data: dict = {
        "type": q.shape,
        "patterns": [{"s": p.subject, "p": p.predicate, "o": p.object} for p in q.patterns],
    }
    if q.range_filter is not None:
        data["filter"] = {
            "predicate": q.range_filter.predicate,
            "low": q.range_filter.low,
            "high": q.range_filter.high,
        }
    return data


def query_from_dict(data: dict) -> QueryPattern:
    """A query from its JSON object; a malformed one raises ValueError
    naming the key at fault."""
    shape, items, f = _entries(data, "query", ("type", "patterns", "filter"), optional=("filter",))
    patterns = tuple(
        TriplePattern(*_entries(item, f"pattern {j}", ("s", "p", "o")))
        for j, item in enumerate(_list(items, "query 'patterns'"))
    )
    range_filter = None if f is None else RangeFilter(*_entries(f, "filter", ("predicate", "low", "high")))
    return QueryPattern(shape, patterns, range_filter)


def workload_to_json(workload: Sequence[QueryPattern]) -> str:
    return json.dumps([query_to_dict(q) for q in workload], indent=2, sort_keys=True) + "\n"


def workload_from_json(text: str) -> list[QueryPattern]:
    """Read a workload file; a malformed query raises ValueError naming its index."""
    workload = []
    for i, item in enumerate(_list(json.loads(text), "workload JSON")):
        try:
            workload.append(query_from_dict(item))
        except ValueError as exc:
            raise ValueError(f"query {i}: {exc}") from None
    return workload


# ---------------------------------------------------------------------------
# communication report

class IncReport(NamedTuple):
    """A workload's outcomes, one per query at its chosen home; the means
    are read from them."""

    workload: Sequence[QueryPattern]
    outcomes: list[QueryOutcome]

    @property
    def fraction_local(self) -> float:
        return sum(o.locally_answered for o in self.outcomes) / len(self.outcomes)

    @property
    def mean_nodes_touched(self) -> float:
        return sum(o.nodes_touched for o in self.outcomes) / len(self.outcomes)

    @property
    def mean_joins(self) -> float:
        return sum(len(q.patterns) - 1 for q in self.workload) / len(self.outcomes)

    @property
    def mean_triples_scanned(self) -> float:
        return sum(o.triples_scanned for o in self.outcomes) / len(self.outcomes)

    @property
    def mean_qet_proxy(self) -> float:
        return sum(o.qet_proxy for o in self.outcomes) / len(self.outcomes)


def inc_report(
    store: TripleStore,
    plan: PartitionPlan,
    workload: Sequence[QueryPattern],
    policy: str | int = "best",
) -> IncReport:
    """Evaluate the workload under the plan and summarize communication.

    ``policy`` is "best" or a node id. "best" routes each query to the node
    needing the fewest touches (how a subject-aware router behaves); a node
    id sends every query there. Each query runs one cluster-wide pass, and
    every candidate home's cost is read from it.
    """
    if not workload:
        raise ValueError("workload must contain at least one query")

    homes = range(plan.m) if policy == "best" else (_integer(policy, "policy", 0, plan.m - 1),)
    return IncReport(workload, [
        min(
            _evaluate(store, plan, q, homes)[2],
            key=lambda o: (o.nodes_touched, not o.locally_answered, o.home_node),
        )
        for q in workload
    ])


def inc_report_csv(report: IncReport) -> str:
    lines = ["query,shape,homeNode,joins,nodesTouched,locallyAnswered,triplesScanned,qetProxy"]
    for i, (q, o) in enumerate(zip(report.workload, report.outcomes)):
        lines.append(
            f"{i},{q.shape},{o.home_node},{len(q.patterns) - 1},{o.nodes_touched},"
            f"{int(o.locally_answered)},{o.triples_scanned},{o.qet_proxy}"
        )
    return "".join(line + "\n" for line in lines)


def inc_report_table(report: IncReport) -> str:
    """Human-readable summary of the communication report."""
    lines = [
        f"{'query':>5}  {'shape':<10} {'home':>4} {'joins':>5} {'nodes':>5} "
        f"{'local':>5} {'scanned':>8} {'cost':>8}",
    ]
    for i, (q, o) in enumerate(zip(report.workload, report.outcomes)):
        lines.append(
            f"{i:>5}  {q.shape:<10} {o.home_node:>4} {len(q.patterns) - 1:>5} {o.nodes_touched:>5} "
            f"{'yes' if o.locally_answered else 'no':>5} {o.triples_scanned:>8} {o.qet_proxy:>8}"
        )
    lines.append(
        f"local fraction {report.fraction_local:.3f}, mean nodes touched "
        f"{report.mean_nodes_touched:.2f}, mean joins {report.mean_joins:.2f}, "
        f"mean triples scanned {report.mean_triples_scanned:.1f}"
    )
    return "".join(line + "\n" for line in lines)
