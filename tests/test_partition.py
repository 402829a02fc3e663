import random
import statistics

import pytest

from tripleshard.generator import generate_sensor_graph
from tripleshard.layout import StageTimer
from tripleshard.partition import grow_fragments, top_subjects
from tripleshard.store import Triple, TripleStore

from _helpers import brute_force_fragments, brute_force_top_subjects, count_ops, random_store


def _store(*rows):
    return TripleStore([Triple(*row) for row in rows])


def _members(result, fragment_id):
    """Sorted positions of one fragment's triples."""
    return [pos for pos, fid in enumerate(result.fragment_of) if fid == fragment_id]


# --- subject ranking -------------------------------------------------------

def test_top_subject_by_frequency():
    store = _store(("a", "p", "x"), ("a", "p", "y"), ("b", "q", "z"))
    assert top_subjects(store, 1) == ["a"]


def test_tie_breaks_ascending_subject():
    store = _store(("b", "q", "z"), ("a", "p", "x"))
    assert top_subjects(store, 2) == ["a", "b"]


def test_k_larger_than_distinct_subjects_reports_count():
    store = _store(("a", "p", "x"), ("b", "q", "z"))
    with pytest.raises(ValueError) as err:
        top_subjects(store, 3)
    assert "2" in str(err.value)


def test_k_must_be_positive():
    with pytest.raises(ValueError):
        top_subjects(_store(("a", "p", "x")), 0)


def test_ranking_matches_brute_force_oracle():
    rng = random.Random(7)
    for _ in range(100):
        store = random_store(rng, rng.randint(30, 600))
        distinct = len(store.subject_index)
        for k in {1, 2, min(5, distinct), distinct}:
            assert top_subjects(store, k) == brute_force_top_subjects(store, k)


# --- fragment growth -------------------------------------------------------

def test_growth_follows_object_reference():
    store = _store(("a", "p", "b"), ("b", "p", "c"))
    result = grow_fragments(store, ["a"])
    assert _members(result, 0) == [0, 1]
    assert result.orphan_count == 0


def test_unreferenced_group_is_orphaned_to_smallest_fragment():
    store = _store(("a", "p", "x"), ("c", "p", "y"))
    result = grow_fragments(store, ["a"])
    assert _members(result, 0) == [0, 1]
    assert result.orphan_count == 1


def test_every_subject_a_master_means_no_orphans():
    store = _store(("a", "p", "x"), ("c", "p", "y"))
    result = grow_fragments(store, ["a", "c"])
    assert [_members(result, fid) for fid, _ in enumerate(result.fragments)] == [[0], [1]]
    assert result.orphan_count == 0


def test_whole_subject_group_moves_together():
    store = _store(("a", "p", "b"), ("b", "p", "c"), ("b", "q", "d"), ("x", "r", "y"))
    result = grow_fragments(store, ["a", "x"])
    assert _members(result, 0) == [0, 1, 2]
    assert _members(result, 1) == [3]


def test_score_tie_goes_to_lowest_fragment_id():
    store = _store(("m1", "p", "s"), ("m2", "q", "s"), ("s", "p", "z"))
    result = grow_fragments(store, ["m1", "m2"])
    assert 2 in _members(result, 0)


def test_higher_reference_count_wins():
    store = _store(("m1", "p", "s"), ("m2", "q", "s"), ("m2", "r", "s"), ("s", "p", "z"))
    result = grow_fragments(store, ["m1", "m2"])
    assert 3 in _members(result, 1)


def test_orphan_lands_on_smallest_fragment():
    store = _store(
        ("a", "p", "l1", True),
        ("a", "q", "l2", True),
        ("b", "p", "l3", True),
        ("c", "p", "l4", True),
    )
    result = grow_fragments(store, ["a", "b"])
    assert 3 in _members(result, 1)
    assert result.orphan_count == 1


def test_rounds_reach_chains_listed_in_reverse_order():
    store = _store(("c", "p", "d"), ("b", "p", "c"), ("a", "p", "b"))
    fixpoint = grow_fragments(store, ["a"])
    assert fixpoint.orphan_count == 0
    assert _members(fixpoint, 0) == [0, 1, 2]


def test_master_validation():
    store = _store(("a", "p", "x"))
    with pytest.raises(ValueError, match=r"^masters must hold at least one subject, got \[\]$"):
        grow_fragments(store, [])
    with pytest.raises(ValueError, match=r"^masters\[1\] repeats an earlier subject, got 'a'$"):
        grow_fragments(store, ["a", "a"])
    with pytest.raises(ValueError, match=r"^masters\[0\] must be a subject of the store, got 'ghost'$"):
        grow_fragments(store, ["ghost"])


def test_completeness_and_cohesion_randomized():
    rng = random.Random(13)
    for _ in range(40):
        store = random_store(rng, rng.randint(40, 800))
        distinct = len(store.subject_index)
        k = rng.randint(1, min(6, distinct))
        result = grow_fragments(store, top_subjects(store, k))

        seen: list[int] = []
        for fid, f in enumerate(result.fragments):
            members = _members(result, fid)
            assert f.size == len(members)
            seen.extend(members)
        assert sorted(seen) == list(range(store.n))

        subject_home: dict[str, int] = {}
        for pos, fid in enumerate(result.fragment_of):
            s = store.triples[pos].subject
            assert subject_home.setdefault(s, fid) == fid


def test_growth_matches_brute_force_oracle():
    def check(store, masters):
        result = grow_fragments(store, masters)
        fragment_of, sizes, orphans = brute_force_fragments(store, masters)
        assert list(result.fragment_of) == fragment_of
        assert [f.size for f in result.fragments] == sizes
        assert result.orphan_count == orphans
        return orphans

    rng = random.Random(29)
    orphaned = 0
    for _ in range(200):
        store = random_store(rng, rng.randint(20, 300))
        subjects = list(store.subject_index)
        k = rng.randint(1, min(12, len(subjects)))
        orphaned += check(store, rng.sample(subjects, k)) > 0
    assert orphaned >= 20  # the fallback is exercised, not only growth
    for seed in (1, 2, 3):
        store = generate_sensor_graph(seed, 6, 5)
        check(store, top_subjects(store, 4))


def test_growth_is_deterministic():
    rng = random.Random(19)
    store = random_store(rng, 500)
    masters = top_subjects(store, 4)
    a = grow_fragments(store, masters)
    b = grow_fragments(store, masters)
    assert a.fragment_of == b.fragment_of
    assert a.orphan_count == b.orphan_count


def _masters_of(store, k):
    """Each subject's fragment master under k masters."""
    result = grow_fragments(store, top_subjects(store, k))
    return {s: result.fragments[result.fragment_of[positions[0]]].master_subject
            for s, positions in store.subject_index.items()}


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP known defect: the layout and the workload depend on line order, "
           "and growth can be quadratic",
)
def test_growth_work_per_triple_is_flat_on_a_chain_listed_against_its_direction():
    """Subject cN links to c(N+1) and holds one literal. Listed last link
    first, each round of today's growth absorbs one subject group, so its
    opcodes per triple grow with the chain; listed forward they are flat."""
    per_triple = []
    for links in (100, 200, 400):
        triples = [Triple(f"c{links:05d}", "value", str(links), True)]
        for n in reversed(range(links)):
            triples += [Triple(f"c{n:05d}", "value", str(n), True),
                        Triple(f"c{n:05d}", "next", f"c{n + 1:05d}")]
        store = TripleStore(triples)
        per_triple.append(count_ops(grow_fragments, store, ["c00000"]) / store.n)
    assert all(abs(x - per_triple[0]) <= 0.1 * per_triple[0] for x in per_triple), per_triple


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP known defect: the layout and the workload depend on line order, "
           "and growth can be quadratic",
)
def test_growth_gives_the_same_masters_whatever_the_line_order():
    store = generate_sensor_graph(7, 50, 60)
    reversed_store = TripleStore(store.triples[::-1])
    assert _masters_of(reversed_store, 5) == _masters_of(store, 5)


def test_ranking_runtime_grows_linearly():
    """Each store's ranking time is taken relative to the first store's,
    timed in alternation, so a slow spell of the machine scales both."""
    rng = random.Random(23)
    base = 60_000
    sizes = []
    ratios = []
    first = None
    for factor in range(1, 6):
        n = base * factor
        n_subjects = n // 4
        triples = [
            Triple(f"s{rng.randrange(n_subjects)}", "p", f"o{i}") for i in range(n)
        ]
        store = TripleStore(triples)
        first = first or store
        ratios.append(statistics.median(
            _timed(lambda: top_subjects(store, 10)) / _timed(lambda: top_subjects(first, 10))
            for _ in range(5)
        ))
        sizes.append(n)
    r2 = statistics.correlation(sizes, ratios) ** 2
    assert r2 >= 0.9, f"ranking time not linear: r2={r2:.3f} ratios={ratios}"


def _timed(fn):
    timer = StageTimer()
    with timer.stage("call"):
        fn()
    return timer.stages_ms["call"]
