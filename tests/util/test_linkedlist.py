"""Unit and property tests for the intrusive doubly linked list."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from tests.util.linkedlist import DoublyLinkedList, ListNode


def make_list(values):
    lst = DoublyLinkedList()
    nodes = [lst.push_front(ListNode(v)) for v in reversed(values)]
    return lst, nodes[::-1]


class TestBasics:
    def test_empty(self):
        lst = DoublyLinkedList()
        assert len(lst) == 0
        assert not lst
        assert lst.head is None
        assert lst.tail is None
        assert list(lst.values()) == []

    def test_push_front_orders_lifo(self):
        lst = DoublyLinkedList()
        for v in [1, 2, 3]:
            lst.push_front(ListNode(v))
        assert list(lst.values()) == [3, 2, 1]

    def test_remove_middle(self):
        lst, nodes = make_list([1, 2, 3])
        lst.remove(nodes[1])
        assert list(lst.values()) == [1, 3]
        assert not nodes[1].linked

    def test_insert_before_and_after(self):
        lst, nodes = make_list([1, 3])
        lst.insert_before(ListNode(2), nodes[1])
        lst.insert_after(ListNode(4), nodes[1])
        assert list(lst.values()) == [1, 2, 3, 4]

    def test_pop_front_back(self):
        lst, _ = make_list([1, 2, 3])
        assert lst.pop_back().value == 3
        assert list(lst.values()) == [1, 2]

    def test_pop_empty_raises(self):
        lst = DoublyLinkedList()
        with pytest.raises(ProtocolError):
            lst.pop_back()

    def test_double_link_rejected(self):
        lst, nodes = make_list([1])
        other = DoublyLinkedList()
        with pytest.raises(ProtocolError):
            other.push_front(nodes[0])

    def test_remove_foreign_node_rejected(self):
        lst, nodes = make_list([1])
        other = DoublyLinkedList()
        with pytest.raises(ProtocolError):
            other.remove(nodes[0])

    def test_iteration_tolerates_removing_current(self):
        lst, nodes = make_list([1, 2, 3])
        seen = []
        for node in lst:
            seen.append(node.value)
            lst.remove(node)
        assert seen == [1, 2, 3]
        assert len(lst) == 0


@settings(max_examples=150, deadline=None)
@given(
    ops=st.lists(
        st.sampled_from(["push_front", "pop_back"]), max_size=80
    )
)
def test_matches_python_list_model(ops):
    """The list behaves exactly like a plain Python list model."""
    lst = DoublyLinkedList()
    model = []  # list of node objects, head first
    counter = 0
    for op in ops:
        if op == "push_front":
            node = lst.push_front(ListNode(counter))
            model.insert(0, node)
            counter += 1
        elif op == "pop_back" and model:
            assert lst.pop_back() is model.pop()
        assert len(lst) == len(model)
        assert [n.value for n in lst] == [n.value for n in model]
