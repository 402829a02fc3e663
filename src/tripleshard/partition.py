"""Fragment construction: degree-ranked seeding plus closeness-driven growth.

Partitioning happens in two steps. First the k highest out-degree subjects
are selected as fragment masters. Then every fragment starts from its
master's subject group and grows by repeatedly pulling in whole subject
groups that the fragment already points at: a pending group scores, against
each fragment, the number of times its subject occurs as a resource object
inside that fragment, and joins the best-scoring fragment. Groups that never
score anywhere fall back to the currently smallest fragment.

Moving whole subject groups keeps the subject-cohesion guarantee: all triples
sharing a subject always land in the same fragment.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .store import TripleStore


def subject_frequencies(store: TripleStore) -> dict[str, int]:
    """Out-degree (triple count) per subject, in first-appearance order."""
    return {s: len(ps) for s, ps in store.subject_index.items()}


def top_subjects(store: TripleStore, k: int) -> list[str]:
    """The k most frequent subjects, ties broken by ascending subject name."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    freq = subject_frequencies(store)
    if len(freq) < k:
        raise ValueError(
            f"store has {len(freq)} distinct subjects, cannot select k={k} masters"
        )
    ranked = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))
    return [s for s, _ in ranked[:k]]


class Fragment(NamedTuple):
    id: int
    master_subject: str
    size: int  # member triples


class PartitionResult(NamedTuple):
    fragments: tuple[Fragment, ...]
    fragment_of: tuple[int, ...]  # fragment id per store position
    orphan_count: int  # triples placed by the smallest-fragment fallback


def grow_fragments(store: TripleStore, masters: list[str]) -> PartitionResult:
    """Grow one fragment per master until every triple is placed.

    Growth runs in rounds over the pending subject groups (first-appearance
    order). A group joins the fragment holding the most references to its
    subject, ties to the lowest fragment id, and the fragment's object counts
    update immediately so later groups see the new members. Rounds repeat
    until a full pass assigns nothing. Remaining groups are orphans: each is
    assigned, in order, to the smallest fragment at that moment.
    """
    if not masters:
        raise ValueError("at least one master subject is required")
    if len(set(masters)) != len(masters):
        raise ValueError("master subjects must be distinct")
    for m in masters:
        if m not in store.subject_index:
            raise ValueError(f"master subject {m!r} has no triples in the store")

    triples = store.triples
    fragment_of = [0] * store.n
    sizes = [0] * len(masters)
    # multiset of resource objects per fragment; literals never enter
    references = [Counter() for _ in masters]

    def absorb(fid: int, positions) -> None:
        sizes[fid] += len(positions)
        counts = references[fid]
        for pos in positions:
            fragment_of[pos] = fid
            t = triples[pos]
            if not t.object_is_literal:
                counts[t.object] += 1

    for fid, master in enumerate(masters):
        absorb(fid, store.subject_index[master])

    master_set = set(masters)
    pending: dict[str, list[int]] = {
        s: ps for s, ps in store.subject_index.items() if s not in master_set
    }

    progressed = True
    while pending and progressed:
        progressed = False
        for subject in list(pending):
            best_count = 0
            best_fid = None
            for fid, counts in enumerate(references):
                c = counts.get(subject, 0)
                if c > best_count:
                    best_count = c
                    best_fid = fid
            if best_fid is not None:
                absorb(best_fid, pending.pop(subject))
                progressed = True

    orphan_count = 0
    for group in pending.values():
        orphan_count += len(group)
        absorb(min(range(len(sizes)), key=sizes.__getitem__), group)

    fragments = tuple(Fragment(i, m, sizes[i]) for i, m in enumerate(masters))
    return PartitionResult(fragments, tuple(fragment_of), orphan_count)
