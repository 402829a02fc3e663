"""Greedy longest-first placement of fragments onto storage nodes."""

from __future__ import annotations

import heapq
from typing import NamedTuple, Sequence

from .store import _integer, _list


class Allocation(NamedTuple):
    node_of_fragment: tuple[int, ...]  # node per fragment, as in the plan
    m: int


def allocate(sizes: Sequence[int], m: int) -> Allocation:
    """Assign fragments (index = fragment id) to m nodes, largest first.

    Fragments are taken in descending size order (ties by ascending id) and
    each goes to the currently least-loaded node (ties by lowest node id).
    Returns each fragment's node; surplus nodes stay empty. The resulting
    spread obeys the classic longest-first bound: max load minus min load
    never exceeds the largest fragment size.
    """
    _integer(m, "m", 1)
    sizes = [_integer(size, f"sizes[{i}]", 0) for i, size in enumerate(_list(sizes, "sizes"))]

    node_of_fragment = [0] * len(sizes)
    heap = [(0, i) for i in range(m)]
    order = sorted(range(len(sizes)), key=lambda i: (-sizes[i], i))
    for fragment_id in order:
        load, node_id = heapq.heappop(heap)
        node_of_fragment[fragment_id] = node_id
        heapq.heappush(heap, (load + sizes[fragment_id], node_id))
    return Allocation(tuple(node_of_fragment), m)
