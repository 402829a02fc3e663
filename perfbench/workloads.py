"""The four workloads: inputs made from the seed, the timed loop, the checks.

Layout workloads time text -> store -> partition -> allocate -> replicate ->
validated plan JSON, repeated for the run's seconds. Afterwards they answer a
fixed probe of star queries (one subject's properties) against the last
plan, which gives them the end-to-end query metrics on a 200k-triple store.
Stars are always local, so the probe measures the plan's serving overhead
rather than the luck of which chains cross nodes, which at this probe size
would move the query metrics by more than their bounds from seed to seed.
The checks then answer one query of every other shape (a range scan alone
costs about 2 s here), so every shape is traced on every workload.

Query workloads build the store and both layouts (semantic and round-robin)
in set-up, then answer a non-repeating query stream one ``inc_report`` call at
a time, in a closed loop with one client, until the run's seconds are spent
and at least MIN_QUERIES queries are answered. The simulator's deterministic
outputs (mean nodes touched, mean cost proxy) are taken over exactly the first
MIN_QUERIES queries, so a faster program answering more queries does not move
them.

Every library call goes through its module attribute (``m_store.parse_ntriples``)
so that a :class:`tracing.Tracer` patch sees it.
"""

from __future__ import annotations

import csv
import gc
import io
import random
import resource
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from importlib import import_module

from tracing import Tracer, median, percentile

m_store = import_module("tripleshard.store")
m_partition = import_module("tripleshard.partition")
m_allocate = import_module("tripleshard.allocate")
m_replicate = import_module("tripleshard.replicate")
m_plan = import_module("tripleshard.plan")
m_query = import_module("tripleshard.query")
m_generator = import_module("tripleshard.generator")

NODES = 4
SENSOR_K = 8
SENSOR_THRESHOLD = 0.65
LINKED_K = 64

LAYOUT_SENSORS = 200  # x 200 observations: ~202k triples
QUERY_SENSORS = 100  # x 100 observations: ~51k triples
LINKED_ROWS = 27_800  # ~200k triples

SETUP_REPEATS = 4
PROBE_QUERIES = 204  # star queries after the layout builds, so p95 has ten beyond it
CHECKED_PROBE_QUERIES = 24  # probe answers compared with the centralized reference
CHECK_COUNTS = (2, 0, 1, 1)  # linear, star, range, snowflake answered by the layout checks
BLOCK_COUNTS = (3, 4, 3, 2)  # linear, star, range, snowflake: generate_workload's default mix
STREAM_BLOCKS = 60  # 720 queries, several times what one run answers
MIN_QUERIES = 204  # 17 blocks, so p95 has ten samples beyond it
REFERENCE_S = 0.002  # nominal seconds of one reference() call; times are scaled to it
LOCAL_REFERENCES = 5  # reference calls on each side of a sample that set its scale

LINKED_MAPPING = m_store.CsvMapping(
    subject_column="id",
    properties=(
        ("linksTo", "link1"), ("linksTo", "link2"), ("linksTo", "link3"),
        ("hasTag", "tag1"), ("hasTag", "tag2"), ("hasTag", "tag3"), ("hasTag", "tag4"),
        ("category", "category"), ("score", "score"), ("label", "label"),
    ),
    resource_columns=frozenset({"link1", "link2", "link3", "category"}),
)


def reference() -> int:
    """Fixed work on tuples, a dict of lists and sets, calling nothing in tripleshard.

    On a 2-core virtual machine at 2.1 GHz sharing its host with other
    tenants, the same Python code ran up to twice as slowly at some moments
    as at others. Timing this function between the workload's operations and
    dividing each operation's time by how much slower than REFERENCE_S the
    calls around it ran cancels most of that drift, while a change to
    tripleshard leaves it untouched.
    """
    rows = [(f"s{i % 499}", i, i * 0.5) for i in range(2000)]
    index: dict[str, list[int]] = {}
    for subject, i, _ in rows:
        index.setdefault(subject, []).append(i)
    evens, thirds = set(range(0, 12000, 2)), set(range(0, 12000, 3))
    return len(index) + len(evens & thirds) + len(evens | thirds)


@dataclass
class Run:
    """One benchmark process: its settings, checks and results."""

    seed: int
    seconds: float
    scale: float
    tracer: Tracer | None
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    end_to_end: dict[str, float] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    shapes: dict[str, str] = field(default_factory=dict)  # query request -> shape
    notes: list[str] = field(default_factory=list)
    overhead_pct: float = 0.0
    reference_s: list[float] = field(default_factory=list)

    def calibrate(self, calls: int = 1) -> None:
        """Time reference() ``calls`` times, with the collector off so the
        workload's heap does not change its cost."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(calls):
                t0 = time.perf_counter()
                reference()
                self.reference_s.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()

    def slowdown(self) -> float:
        """Median reference time over the whole run, divided by REFERENCE_S."""
        return median(self.reference_s) / REFERENCE_S

    def stamp(self, seconds: float) -> tuple[float, int]:
        """A timing sample, tagged with the number of reference calls before it."""
        return seconds, len(self.reference_s)

    def scaled(self, samples: list[tuple[float, int]]) -> list[float]:
        """Each sample divided by the slowdown of the reference calls around it."""
        out = []
        for seconds, pos in samples:
            around = self.reference_s[max(0, pos - LOCAL_REFERENCES):pos + LOCAL_REFERENCES]
            out.append(seconds * REFERENCE_S / median(around))
        return out

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def request(self, name: str | None) -> None:
        if self.tracer is not None:
            self.tracer.request = name

    def traced(self):
        return self.tracer.installed() if self.tracer is not None else nullcontext()

    def paired(self, index: int, request: str, fn):
        """Call fn untraced; in a traced run also traced, the traced call first
        on even ``index`` and second on odd.

        Returns (result, untraced seconds, traced seconds or None).
        """
        if self.tracer is None:
            t0 = time.perf_counter()
            result = fn()
            return result, time.perf_counter() - t0, None
        times = {}
        first_traced = index % 2 == 0
        for traced in (first_traced, not first_traced):
            self.request(request if traced else None)
            with self.traced() if traced else nullcontext():
                t0 = time.perf_counter()
                result = fn()
                times[traced] = time.perf_counter() - t0
        return result, times[False], times[True]


# ---------------------------------------------------------------------------
# inputs


def sensor_text(seed: int, sensors: int, observations: int) -> str:
    store = m_generator.generate_sensor_graph(seed, sensors, observations)
    return m_store.serialize_ntriples(store)


def linked_csv(seed: int, rows: int) -> str:
    """A shuffled entity table whose link columns point at random other rows.

    Rows carry up to three links, one to four tags (nested fill, so full rows
    are rare and rank first), and three single-valued columns. Rows nobody
    links to stay unreachable from the masters and fall to the orphan path.
    """
    rng = random.Random(seed)
    order = list(range(rows))
    rng.shuffle(order)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["id", "link1", "link2", "link3", "tag1", "tag2", "tag3", "tag4",
                     "category", "score", "label"])
    for i in order:
        links = [f"item/{j:06d}" if rng.random() < 0.9 else ""
                 for j in rng.sample(range(rows), 3) if j != i]
        links += [""] * (3 - len(links))
        n_tags = 0
        for p in (0.8, 0.5, 0.5, 0.5):
            if rng.random() >= p:
                break
            n_tags += 1
        tags = [f"tag/{t}" for t in rng.sample(range(400), n_tags)] + [""] * (4 - n_tags)
        writer.writerow([f"item/{i:06d}", *links, *tags, f"category/{rng.randrange(40)}",
                         f"{rng.uniform(0, 1000):.2f}", f"label {rng.randrange(10**6)}"])
    return out.getvalue()


def _numeric_values(store) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    for predicate, positions in store.predicate_index.items():
        vals = []
        for pos in positions:
            try:
                vals.append(float(store.triples[pos].object))
            except ValueError:
                continue
        if vals:
            values[predicate] = sorted(vals)
    return values


class RangeMaker:
    """Range queries with predicate and bounds from the benchmark's RNG.

    Predicates come in shuffled rounds, each numeric predicate once per round,
    so the mix of cheap and expensive scans is the same on every seed; the
    bounds cover a random 5-50% slice of the predicate's values.
    """

    def __init__(self, store, rng: random.Random):
        self.values = _numeric_values(store)
        self.rng = rng
        self.round: list[str] = []

    def make(self):
        if not self.round:
            self.round = sorted(self.values)
            self.rng.shuffle(self.round)
        predicate = self.round.pop()
        vals = self.values[predicate]
        width = self.rng.uniform(0.05, 0.5)
        start = self.rng.uniform(0.0, 1.0 - width)
        low = vals[int(start * (len(vals) - 1))]
        high = vals[int((start + width) * (len(vals) - 1))]
        return m_query.QueryPattern(
            "range",
            (m_query.TriplePattern("?s", predicate, "?value"),),
            m_query.RangeFilter(predicate, low, high),
        )


def query_stream(store, seed: int, blocks: int, counts=BLOCK_COUNTS) -> list:
    """Blocks of queries in the ``counts`` mix (linear, star, range, snowflake),
    each block shuffled; the default is generate_workload's 3:4:3:2."""
    rng = random.Random(seed)
    n_linear, n_star, n_range, n_snow = counts
    points = m_query.generate_workload(
        store, seed, (n_linear * blocks, n_star * blocks, 0, n_snow * blocks)
    )
    by_shape = {shape: [q for q in points if q.shape == shape]
                for shape in ("linear", "star", "snowflake")}
    ranges = RangeMaker(store, rng) if n_range else None
    stream = []
    for b in range(blocks):
        block = (by_shape["linear"][b * n_linear:(b + 1) * n_linear]
                 + by_shape["star"][b * n_star:(b + 1) * n_star]
                 + by_shape["snowflake"][b * n_snow:(b + 1) * n_snow]
                 + [ranges.make() for _ in range(n_range)])
        rng.shuffle(block)
        stream.extend(block)
    return stream


# ---------------------------------------------------------------------------
# layouts


@dataclass
class Layout:
    store: object
    plan: object
    plan_json: str
    partition: object = None
    decision: object = None


def semantic_layout(store, k: int, threshold: float | None) -> Layout:
    """Partition, allocate, replicate and publish; threshold None derives it."""
    masters = m_partition.top_subjects(store, k)
    partition = m_partition.grow_fragments(store, masters)
    allocation = m_allocate.allocate([f.size for f in partition.fragments], NODES)
    plan = m_plan.build_plan(partition, allocation)
    table = m_replicate.compute_centrality(store)
    cutoff = m_replicate.derive_threshold(table, store, masters, threshold)
    decision, plan = m_replicate.replicate(plan, table, cutoff, store)
    plan.validate(store)
    return Layout(store, plan, plan.to_json(), partition, decision)


def round_robin_layout(store) -> Layout:
    plan = m_plan.round_robin_triple_plan(store, NODES)
    plan.validate(store)
    return Layout(store, plan, plan.to_json())


def layout_shape_metrics(run: Run, layout: Layout) -> None:
    plan, n = layout.plan, layout.store.n
    loads = plan.node_loads()
    copies = sum(loads) + sum(len(r) for r in plan.replicas)
    run.end_to_end["storage_amplification"] = copies / n
    run.counts["plan.load_imbalance"] = max(loads) / (sum(loads) / len(loads))
    run.notes.append(f"storage_amplification base: {copies} copies of {n} triples; "
                     f"owned triples per node {loads}")


def layout_counts(run: Run, semantic: Layout, served: Layout) -> None:
    run.counts.update({
        "store.triples": served.store.n,
        "store.subjects": len(served.store.subject_index),
        "partition.orphan_triples": semantic.partition.orphan_count,
        "replicate.replicated_triples": len(semantic.decision.replicated_positions),
        "plan.json_bytes": len(served.plan_json),
    })


# ---------------------------------------------------------------------------
# queries and checks


def serve(run: Run, layout: Layout, queries: list, min_queries: int, seconds: float | None):
    """Closed loop, one client: one inc_report call per query, in order.

    Stops after ``seconds`` once ``min_queries`` are answered (or at the end
    of the list). Returns (outcomes, untraced latencies scaled to the reference).
    """
    outcomes, latencies = [], []
    untraced = traced = 0.0
    start = time.perf_counter()
    for i, q in enumerate(queries):
        if seconds is not None and i >= min_queries and time.perf_counter() - start >= seconds:
            break
        run.calibrate()
        request = f"q{i}"
        run.shapes[request] = q.shape
        report, dt, dt_traced = run.paired(
            i, request, lambda: m_query.inc_report(layout.store, layout.plan, [q], policy="best")
        )
        outcomes.append(report.outcomes[0])
        latencies.append(run.stamp(dt))
        untraced += dt
        traced += dt_traced or 0.0
    run.calibrate(LOCAL_REFERENCES)
    if run.tracer is not None and untraced > 0:
        run.overhead_pct = (traced / untraced - 1.0) * 100.0
    return outcomes, run.scaled(latencies)


def query_metrics(run: Run, queries: list, outcomes: list, latencies: list, fixed: int) -> None:
    """Throughput is queries answered over the time spent answering them."""
    answered = len(outcomes)
    head = outcomes[:fixed]
    seen, repeats = set(), 0
    for q in queries[:answered]:
        repeats += q in seen
        seen.add(q)
    run.end_to_end.update({
        "queries_per_s": answered / sum(latencies),
        "query_p50_ms": median(latencies) * 1000.0,
        "query_p95_ms": percentile(latencies, 95) * 1000.0,
        "mean_nodes_touched": sum(o.nodes_touched for o in head) / len(head),
    })
    run.counts.update({
        "query.answered": answered,
        "query.fraction_local": sum(o.locally_answered for o in outcomes) / answered,
        "query.repeat_share": repeats / answered,
        "query.triples_scanned_mean": sum(o.triples_scanned for o in outcomes) / answered,
        "query.qet_proxy_mean": sum(o.qet_proxy for o in head) / len(head),
    })
    run.notes.append(
        f"queries answered: {answered} in {sum(latencies):.3f} s; "
        f"p50/p95 over {len(latencies)} samples; "
        f"mean_nodes_touched and query.qet_proxy_mean over the first {len(head)}; "
        f"fraction_local {run.counts['query.fraction_local']:.4f} and "
        f"repeat_share {run.counts['query.repeat_share']:.4f} of {answered}"
    )


def check_bindings(run: Run, layout: Layout, queries: list, outcomes: list) -> None:
    run.request("check")
    for q, outcome in zip(queries, outcomes):
        distributed = m_query.evaluate_distributed(layout.store, layout.plan, q, outcome.home_node)
        reference = m_query.evaluate_centralized(layout.store, q)
        run.check(distributed.bindings == reference.bindings,
                  f"{q.shape} query bindings differ from the centralized reference")


def check_layout(run: Run, layout: Layout) -> None:
    """The store and the plan JSON both read back to what was written."""
    run.request("check")
    text = m_store.serialize_ntriples(layout.store)
    run.check(m_store.parse_ntriples(text) == layout.store,
              "parse_ntriples(serialize_ntriples(store)) != store")
    try:
        reloaded = m_plan.PartitionPlan.from_json(layout.plan_json)
        reloaded.validate(layout.store)
        ok = reloaded.to_json() == layout.plan_json
    except m_plan.PlanError as exc:
        run.notes.append(f"plan JSON check: {exc}")
        ok = False
    run.check(ok, "plan JSON does not read back to a valid, identical plan")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# workloads


def _layout_workload(run: Run, make_text, ingest, k: int, threshold: float | None) -> None:
    setup = []
    with run.traced():
        for r in range(SETUP_REPEATS):
            run.calibrate(5)
            run.request(f"setup{r}")
            t0 = time.perf_counter()
            text = make_text()
            setup.append(run.stamp(time.perf_counter() - t0))
    run.calibrate(5)

    def build():
        return semantic_layout(ingest(text), k, threshold)

    builds, traced_builds, plan_jsons = [], [], set()
    start = time.perf_counter()
    layout = None
    while layout is None or time.perf_counter() - start < run.seconds:
        run.calibrate(5)
        layout, dt, dt_traced = run.paired(len(builds), f"build{len(builds)}", build)
        builds.append(run.stamp(dt))
        if dt_traced is not None:
            traced_builds.append(dt_traced)
        plan_jsons.add(hash(layout.plan_json))
    run.calibrate(5)
    if traced_builds:
        untraced_builds = [dt for dt, _ in builds]
        run.overhead_pct = (median(traced_builds) / median(untraced_builds) - 1.0) * 100.0
    run.check(len(plan_jsons) == 1, "repeated builds of one input gave different plans")
    run.end_to_end["setup_s"] = median(run.scaled(setup))
    run.end_to_end["layout_s"] = median(run.scaled(builds))
    run.notes.append(f"setup_s median of {len(setup)}; layout_s median of {len(builds)} builds")

    with run.traced():
        run.request("probe")
        probe = m_query.generate_workload(layout.store, run.seed, (0, PROBE_QUERIES, 0, 0))
    outcomes, latencies = serve(run, layout, probe, len(probe), None)
    query_metrics(run, probe, outcomes, latencies, len(probe))
    layout_shape_metrics(run, layout)
    layout_counts(run, layout, layout)

    with run.traced():
        check_layout(run, layout)
        checked = CHECKED_PROBE_QUERIES
        check_bindings(run, layout, probe[:checked], outcomes[:checked])
        others = query_stream(layout.store, run.seed + 1, 1, CHECK_COUNTS)
        for i, q in enumerate(others):
            request = f"check-q{i}"
            run.request(request)
            run.shapes[request] = q.shape
            report = m_query.inc_report(layout.store, layout.plan, [q], policy="best")
            check_bindings(run, layout, [q], report.outcomes)


def layout_sensor(run: Run) -> None:
    sensors = max(2, round(LAYOUT_SENSORS * run.scale))
    _layout_workload(
        run,
        lambda: sensor_text(run.seed, sensors, 200),
        lambda text: m_store.parse_ntriples(text),
        SENSOR_K,
        SENSOR_THRESHOLD,
    )
    run.notes.append(f"input: {sensors} sensors x up to 200 observations")


def layout_linked(run: Run) -> None:
    rows = max(LINKED_K * 2, round(LINKED_ROWS * run.scale))
    _layout_workload(
        run,
        lambda: linked_csv(run.seed, rows),
        lambda text: m_store.ingest_csv(text, LINKED_MAPPING).store,
        LINKED_K,
        None,
    )
    run.notes.append(f"input: {rows} CSV rows")


def _query_workload(run: Run, served_name: str) -> None:
    sensors = max(SENSOR_K, round(QUERY_SENSORS * run.scale))
    setup, layout_times = [], []
    with run.traced():
        for r in range(SETUP_REPEATS):
            run.calibrate(5)
            run.request(f"setup{r}")
            t0 = time.perf_counter()
            text = sensor_text(run.seed, sensors, 100)
            t1 = time.perf_counter()
            store = m_store.parse_ntriples(text)
            t2 = time.perf_counter()
            semantic = semantic_layout(store, SENSOR_K, SENSOR_THRESHOLD)
            t3 = time.perf_counter()
            round_robin = round_robin_layout(store)
            t4 = time.perf_counter()
            stream = query_stream(store, run.seed, STREAM_BLOCKS)
            setup.append(run.stamp(time.perf_counter() - t0))
            served_s = (t3 - t2) if served_name == "semantic" else (t4 - t3)
            layout_times.append(run.stamp((t2 - t1) + served_s))
    run.calibrate(5)
    served, other = (semantic, round_robin) if served_name == "semantic" else (round_robin, semantic)
    run.end_to_end["setup_s"] = median(run.scaled(setup))
    run.end_to_end["layout_s"] = median(run.scaled(layout_times))
    run.notes.append(f"input: {sensors} sensors x up to 100 observations, stream of {len(stream)}; "
                     f"setup_s and layout_s medians of {len(setup)}")

    outcomes, latencies = serve(run, served, stream, MIN_QUERIES, run.seconds)
    query_metrics(run, stream, outcomes, latencies, MIN_QUERIES)
    layout_shape_metrics(run, served)
    layout_counts(run, semantic, served)

    with run.traced():
        check_layout(run, served)
        check_bindings(run, served, stream, outcomes)
        # locality must favour the semantic plan on the first block of the stream
        block = sum(BLOCK_COUNTS)
        own = sum(o.locally_answered for o in outcomes[:block]) / block
        with run.tracer.paused() if run.tracer is not None else nullcontext():
            theirs = m_query.inc_report(store, other.plan, stream[:block], policy="best").fraction_local
        sem, rr = (own, theirs) if served_name == "semantic" else (theirs, own)
        run.check(sem > rr, f"fraction_local semantic {sem:.3f} not above round-robin {rr:.3f}")
        run.notes.append(f"first {block} queries: fraction_local semantic {sem:.3f}, round-robin {rr:.3f}")


def query_semantic(run: Run) -> None:
    _query_workload(run, "semantic")


def query_roundrobin(run: Run) -> None:
    _query_workload(run, "roundrobin")


WORKLOADS = {
    "layout_sensor": (layout_sensor, "store.parse_ntriples"),
    "layout_linked": (layout_linked, "store.ingest_csv"),
    "query_semantic": (query_semantic, "store.parse_ntriples"),
    "query_roundrobin": (query_roundrobin, "store.parse_ntriples"),
}
