"""Greedy longest-first placement of fragments onto storage nodes."""

from __future__ import annotations

import heapq
from typing import Sequence


def allocate(sizes: Sequence[int], m: int) -> tuple[tuple[int, ...], ...]:
    """Assign fragments (index = fragment id) to m nodes, largest first.

    Fragments are taken in descending size order (ties by ascending id) and
    each goes to the currently least-loaded node (ties by lowest node id).
    Returns the fragment ids of each node in placement order; there are
    always m entries, so surplus nodes stay empty. The resulting spread obeys
    the classic longest-first bound: max load minus min load never exceeds
    the largest fragment size.
    """
    if m < 1:
        raise ValueError(f"node count must be at least 1, got {m}")
    for i, size in enumerate(sizes):
        if size < 0:
            raise ValueError(f"fragment {i} has negative size {size}")

    nodes: list[list[int]] = [[] for _ in range(m)]
    heap = [(0, i) for i in range(m)]
    order = sorted(range(len(sizes)), key=lambda i: (-sizes[i], i))
    for fragment_id in order:
        load, node_id = heapq.heappop(heap)
        nodes[node_id].append(fragment_id)
        heapq.heappush(heap, (load + sizes[fragment_id], node_id))
    return tuple(map(tuple, nodes))
