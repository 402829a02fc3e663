"""Greedy longest-first placement of fragments onto storage nodes."""

from __future__ import annotations

import heapq
from typing import Sequence

from .store import _integer


def allocate(sizes: Sequence[int], m: int) -> tuple[tuple[int, ...], ...]:
    """Assign fragments (index = fragment id) to m nodes, largest first.

    Fragments are taken in descending size order (ties by ascending id) and
    each goes to the currently least-loaded node (ties by lowest node id).
    Returns the fragment ids of each node in placement order; there are
    always m entries, so surplus nodes stay empty. The resulting spread obeys
    the classic longest-first bound: max load minus min load never exceeds
    the largest fragment size.
    """
    _integer(m, "m", 1)
    sizes = [_integer(size, f"sizes[{i}]", 0) for i, size in enumerate(sizes)]

    nodes: list[list[int]] = [[] for _ in range(m)]
    heap = [(0, i) for i in range(m)]
    order = sorted(range(len(sizes)), key=lambda i: (-sizes[i], i))
    for fragment_id in order:
        load, node_id = heapq.heappop(heap)
        nodes[node_id].append(fragment_id)
        heapq.heappush(heap, (load + sizes[fragment_id], node_id))
    return tuple(map(tuple, nodes))
