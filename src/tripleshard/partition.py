"""Fragment construction: degree-ranked seeding plus closeness-driven growth.

Partitioning happens in two steps. First the k highest out-degree subjects
are selected as fragment masters. Then each fragment starts from its master's
subject group and grows by pulling in whole subject groups it points at: a
pending group scores, against each fragment, the number of the fragment's
subject links (``TripleStore.subject_links``) into it, and joins the best.
Sweeps repeat while a pending group has a reference; groups that never score
fall back to the currently smallest fragment.

Moving whole subject groups keeps the subject-cohesion guarantee: all triples
sharing a subject always land in the same fragment.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

from .store import TripleStore, _integer, _subjects


def top_subjects(store: TripleStore, k: int) -> list[str]:
    """The k most frequent subjects, ties broken by ascending subject name."""
    _integer(k, "k", 1)
    index = store.subject_index
    if len(index) < k:
        raise ValueError(
            f"store has {len(index)} distinct subjects, cannot select k={k} masters"
        )
    return heapq.nsmallest(k, index, key=lambda s: (-len(index[s]), s))


class Fragment(NamedTuple):
    master_subject: str
    size: int  # member triples


class PartitionResult(NamedTuple):
    fragments: tuple[Fragment, ...]  # a fragment's id is its index here
    fragment_of: tuple[int, ...]  # fragment id per store position
    orphan_count: int  # triples placed by the smallest-fragment fallback


def grow_fragments(store: TripleStore, masters: list[str]) -> PartitionResult:
    """Grow one fragment per master until every triple is placed.

    Growth runs in rounds over the pending subject groups (first-appearance
    order). A group joins the fragment with the most ``TripleStore.subject_links``
    into it, ties to the lowest fragment id, and the group's own links are
    counted immediately so later groups see the new members. Rounds repeat
    while a pending group has a reference. Remaining groups are orphans: each
    is assigned, in order, to the smallest fragment at that moment.
    """
    masters = _subjects(store, masters, "masters")
    triples, links = store.triples, store.subject_links()
    fragment_of = [0] * store.n
    sizes = [0] * len(masters)
    master_set = set(masters)
    pending: dict[str, list[int]] = {
        s: ps for s, ps in store.subject_index.items() if s not in master_set
    }
    # per pending subject: the absorbed links into it, counted per fragment
    references: dict[str, dict[int, int]] = {}

    def absorb(fid: int, subject: str, positions) -> None:
        sizes[fid] += len(positions)
        for pos in positions:
            fragment_of[pos] = fid
        for pos in links.get(subject, ()):
            if (obj := triples[pos].object) in pending:
                counts = references.setdefault(obj, {})
                counts[fid] = counts.get(fid, 0) + 1

    for fid, master in enumerate(masters):
        absorb(fid, master, store.subject_index[master])

    while references:
        for subject in list(pending):
            counts = references.pop(subject, None)
            if counts is not None:
                best = min(counts, key=lambda fid: (-counts[fid], fid))
                absorb(best, subject, pending.pop(subject))

    orphan_count = store.n - sum(sizes)  # the triples growth left unplaced
    for subject, group in pending.items():
        absorb(min(range(len(sizes)), key=sizes.__getitem__), subject, group)

    fragments = tuple(map(Fragment, masters, sizes))
    return PartitionResult(fragments, tuple(fragment_of), orphan_count)
