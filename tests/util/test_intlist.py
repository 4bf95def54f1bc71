"""Property tests: IntLinkedList/IntSlab vs DoublyLinkedList.

The slab list is the array kernel under the uniLRUstack and the
server gLRU; it must behave exactly like the pointer-object list it
replaced. A random operation interpreter drives both implementations in
lockstep — two slab lists sharing one slot space, mirrored by two node
lists — and compares order, size, list ends and error behaviour after
every step, then validates the array invariants and slab accounting.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.util.intlist import SENTINEL, UNLINKED, IntLinkedList, IntSlab
from tests.util.linkedlist import DoublyLinkedList, ListNode

OPS = (
    "alloc",
    "free",
    "push_front",
    "insert_before",
    "insert_after",
    "remove",
    "pop_back",
)

operations = st.lists(
    st.tuples(
        st.sampled_from(OPS),
        st.integers(min_value=0, max_value=63),  # slot choice
        st.integers(min_value=0, max_value=63),  # anchor / list choice
    ),
    max_size=120,
)


class Lockstep:
    """Drive an IntLinkedList pair and a DoublyLinkedList pair together.

    Both slab lists share one :class:`IntSlab` (the layout the
    uniLRUstack uses: the same slot linked into the global and a level
    list); each (slot, list) pair is mirrored by a dedicated ListNode.
    """

    def __init__(self) -> None:
        self.slab = IntSlab()
        self.real = [IntLinkedList(self.slab), IntLinkedList(self.slab)]
        self.mirror = [DoublyLinkedList(), DoublyLinkedList()]
        # slot -> [ListNode for list 0, ListNode for list 1]
        self.nodes = {}

    # -- operand selection (deterministic in the op's integers) ----------

    def pick_slot(self, index: int):
        slots = sorted(self.nodes)
        return slots[index % len(slots)] if slots else None

    def assert_equal(self) -> None:
        for lst, mirror in zip(self.real, self.mirror):
            assert list(lst) == [n.value for n in mirror]
            assert len(lst) == len(mirror)
            # The sentinel's links are the list ends (itself when empty).
            assert lst.next[SENTINEL] == (
                mirror.head.value if mirror.head is not None else SENTINEL
            )
            assert lst.prev[SENTINEL] == (
                mirror.tail.value if mirror.tail is not None else SENTINEL
            )

    def run(self, ops) -> None:
        for name, a, b in ops:
            self.step(name, a, b)
            self.assert_equal()
        for lst in self.real:
            lst.check_invariants()
        self.slab.check_invariants()

    def step(self, name: str, a: int, b: int) -> None:
        which = b % 2
        lst, mirror = self.real[which], self.mirror[which]
        slot = self.pick_slot(a)

        if name == "alloc":
            fresh = self.slab.alloc()
            assert fresh != SENTINEL
            assert all(other.prev[fresh] == UNLINKED for other in self.real)
            self.nodes[fresh] = [ListNode(fresh), ListNode(fresh)]
            return
        if slot is None:
            return
        node = self.nodes[slot][which]

        if name == "free":
            if any(other.prev[slot] != UNLINKED for other in self.real):
                with pytest.raises(ProtocolError):
                    self.slab.free(slot)
                return
            self.slab.free(slot)
            del self.nodes[slot]
        elif name == "push_front":
            if lst.prev[slot] != UNLINKED:
                with pytest.raises(ProtocolError):
                    lst.push_front(slot)
                with pytest.raises(ProtocolError):
                    mirror.push_front(node)
                return
            lst.push_front(slot)
            mirror.push_front(node)
        elif name in ("insert_before", "insert_after"):
            anchor = self.pick_slot(b)
            if anchor is None:
                return
            anchor_node = self.nodes[anchor][which]
            if lst.prev[slot] != UNLINKED or lst.prev[anchor] == UNLINKED:
                with pytest.raises(ProtocolError):
                    getattr(lst, name)(slot, anchor)
                with pytest.raises(ProtocolError):
                    getattr(mirror, name)(node, anchor_node)
                return
            getattr(lst, name)(slot, anchor)
            getattr(mirror, name)(node, anchor_node)
        elif name == "remove":
            if lst.prev[slot] == UNLINKED:
                with pytest.raises(ProtocolError):
                    lst.remove(slot)
                with pytest.raises(ProtocolError):
                    mirror.remove(node)
                return
            lst.remove(slot)
            mirror.remove(node)
        elif name == "pop_back":
            if len(lst) == 0:
                with pytest.raises(ProtocolError):
                    lst.pop_back()
                with pytest.raises(ProtocolError):
                    mirror.pop_back()
                return
            assert lst.pop_back() == mirror.pop_back().value


@settings(max_examples=200, deadline=None)
@given(operations)
def test_random_ops_match_doubly_linked_list(ops):
    Lockstep().run(ops)


def test_slot_numbering_is_dense_and_deterministic():
    """Geometric batch growth must hand out the same slots one-at-a-time
    growth would: 1, 2, 3, ... with LIFO recycling."""
    slab = IntSlab()
    IntLinkedList(slab)
    slots = [slab.alloc() for _ in range(100)]
    assert slots == list(range(1, 101))
    slab.free(42)
    slab.free(7)
    assert slab.alloc() == 7
    assert slab.alloc() == 42
    assert slab.in_use == 100


def test_shared_slab_lists_are_independent():
    """One slot may be linked into several lists at once (the
    uniLRUstack layout); orders evolve independently."""
    slab = IntSlab()
    first, second = IntLinkedList(slab), IntLinkedList(slab)
    slots = [slab.alloc() for _ in range(4)]
    for slot in slots:
        second.push_front(slot)
    for slot in reversed(slots):
        first.push_front(slot)
    assert list(first) == slots
    assert list(second) == slots[::-1]
    first.remove(slots[2])
    first.push_front(slots[2])
    assert list(first) == [slots[2], slots[0], slots[1], slots[3]]
    assert list(second) == slots[::-1]
    second.remove(slots[0])
    first.check_invariants()
    second.check_invariants()
    with pytest.raises(ProtocolError):
        slab.free(slots[0])  # still linked in `first`
    first.remove(slots[0])
    slab.free(slots[0])


def test_iteration_tolerates_removing_current():
    slab = IntSlab()
    lst = IntLinkedList(slab)
    slots = [slab.alloc() for _ in range(8)]
    for slot in reversed(slots):
        lst.push_front(slot)
    seen = []
    for slot in lst:
        seen.append(slot)
        lst.remove(slot)
    assert seen == slots
    assert len(lst) == 0
    for slot in slots:
        lst.push_front(slot)
    seen = []
    for slot in lst.iter_reverse():
        seen.append(slot)
        lst.remove(slot)
    assert seen == slots
