import random

import pytest

from tripleshard.allocate import Allocation, allocate

from _helpers import allocation_loads, round_robin_loads


def test_worked_example_two_nodes():
    allocation = allocate([10, 7, 5, 3], 2)
    assert allocation == Allocation((0, 1, 1, 0), 2)
    assert allocation_loads([10, 7, 5, 3], allocation) == [13, 12]


def test_single_node_takes_everything():
    allocation = allocate([4, 1, 2], 1)
    assert allocation == Allocation((0, 0, 0), 1)
    assert allocation_loads([4, 1, 2], allocation) == [7]


def test_more_nodes_than_fragments_leaves_empty_nodes():
    allocation = allocate([4, 2], 4)
    assert allocation == Allocation((0, 1), 4)
    assert allocation_loads([4, 2], allocation) == [4, 2, 0, 0]


def test_zero_nodes_rejected():
    with pytest.raises(ValueError):
        allocate([1, 2], 0)


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        allocate([3, -1], 2)


def test_equal_sizes_tie_break_is_stable():
    assert allocate([5, 5, 5], 2) == Allocation((0, 1, 0), 2)


def test_every_fragment_assigned_exactly_once():
    rng = random.Random(31)
    for _ in range(50):
        sizes = [rng.randint(0, 500) for _ in range(rng.randint(1, 40))]
        m = rng.randint(1, 8)
        node_of_fragment, nodes = allocate(sizes, m)
        assert nodes == m
        assert len(node_of_fragment) == len(sizes)
        assert all(node in range(m) for node in node_of_fragment)


def test_spread_bounded_by_largest_fragment():
    rng = random.Random(37)
    for _ in range(200):
        sizes = [rng.randint(1, 1000) for _ in range(rng.randint(1, 30))]
        m = rng.randint(1, 6)
        loads = allocation_loads(sizes, allocate(sizes, m))
        assert max(loads) - min(loads) <= max(sizes)


def test_greedy_not_worse_than_round_robin():
    rng = random.Random(41)
    better_or_equal = 0
    trials = 300
    for _ in range(trials):
        sizes = [rng.randint(1, 1000) for _ in range(rng.randint(2, 30))]
        m = rng.randint(2, 6)
        greedy_max = max(allocation_loads(sizes, allocate(sizes, m)))
        rr_max = max(round_robin_loads(sizes, m))
        if greedy_max <= rr_max:
            better_or_equal += 1
        assert greedy_max <= rr_max * 1.10
    assert better_or_equal / trials >= 0.9


def test_deterministic():
    rng = random.Random(43)
    sizes = [rng.randint(1, 100) for _ in range(20)]
    assert allocate(sizes, 3) == allocate(sizes, 3)
