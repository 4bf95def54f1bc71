"""Unit and property tests for the order-statistic treap."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.util.ostree import OrderStatisticTree


class TestBasics:
    def test_empty(self):
        tree = OrderStatisticTree()
        assert len(tree) == 0
        assert tree.keys() == []

    def test_insert_keeps_sorted_order(self):
        tree = OrderStatisticTree()
        for key in [5, 1, 4, 2, 3]:
            tree.insert(key)
        assert tree.keys() == [1, 2, 3, 4, 5]

    def test_duplicates_allowed(self):
        tree = OrderStatisticTree()
        for key in [2, 2, 1, 2]:
            tree.insert(key)
        assert tree.keys() == [1, 2, 2, 2]
        assert len(tree) == 4

    def test_rank_and_select_roundtrip(self):
        tree = OrderStatisticTree()
        handles = [tree.insert(k) for k in [10, 20, 30]]
        assert [tree.rank(h) for h in handles] == [0, 1, 2]
        for k in range(3):
            assert tree.rank(tree.select(k)) == k

    def test_rank_of_key(self):
        tree = OrderStatisticTree()
        for key in [1, 3, 3, 7]:
            tree.insert(key)
        assert tree.rank_of_key(0) == 0
        assert tree.rank_of_key(3) == 1
        assert tree.rank_of_key(4) == 3
        assert tree.rank_of_key(100) == 4

    def test_remove_specific_duplicate(self):
        tree = OrderStatisticTree()
        first = tree.insert(5)
        second = tree.insert(5)
        tree.remove(first)
        assert len(tree) == 1
        assert tree.rank(second) == 0

    def test_select_out_of_range(self):
        tree = OrderStatisticTree()
        tree.insert(1)
        with pytest.raises(IndexError):
            tree.select(1)
        with pytest.raises(IndexError):
            tree.select(-1)

    def test_tuple_keys(self):
        tree = OrderStatisticTree()
        tree.insert((2, "b"))
        tree.insert((1, "a"))
        tree.insert((2, "a"))
        assert tree.keys() == [(1, "a"), (2, "a"), (2, "b")]


@settings(max_examples=150, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=-50, max_value=50)),
        max_size=100,
    )
)
def test_matches_sorted_list_model(ops):
    """Insert/remove/rank agree with a naive sorted-list model."""
    tree = OrderStatisticTree(seed=7)
    live = []  # (key, handle) pairs in insertion order

    for is_insert, key in ops:
        if is_insert or not live:
            handle = tree.insert(key)
            live.append((key, handle))
        else:
            victim_key, victim_handle = live.pop(abs(key) % len(live))
            tree.remove(victim_handle)
        assert tree.keys() == sorted(k for k, _ in live)
        assert len(tree) == len(live)

    # Rank of each live handle matches its key's position among sorted keys
    # (handles with equal keys occupy a contiguous rank range).
    sorted_keys = sorted(k for k, _ in live)
    for key, handle in live:
        rank = tree.rank(handle)
        lo = sorted_keys.index(key)
        hi = lo + sorted_keys.count(key) - 1
        assert lo <= rank <= hi
        assert tree.select(rank) is handle
