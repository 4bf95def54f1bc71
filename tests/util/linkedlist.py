"""Intrusive doubly linked list with O(1) splicing (test reference).

The pointer-node list the library's LRU stacks were first built on,
kept as the reference :class:`repro.util.intlist.IntLinkedList` is
checked against in lockstep (``tests/util/test_intlist.py``). Nodes are
first-class objects owned by the caller, so a node can be unlinked,
moved to the front, or inserted before/after another node in O(1)
without any lookup.

The list uses a circular sentinel internally, which removes every special
case for empty lists and boundary nodes.
"""

from __future__ import annotations

from typing import Generic, Iterator, Optional, TypeVar

from repro.errors import ProtocolError

T = TypeVar("T")


class ListNode(Generic[T]):
    """A list node carrying an arbitrary ``value``.

    A node belongs to at most one :class:`DoublyLinkedList` at a time;
    linking an already-linked node raises :class:`ProtocolError`.
    """

    __slots__ = ("value", "prev", "next", "_list")

    def __init__(self, value: T) -> None:
        self.value = value
        self.prev: Optional[ListNode[T]] = None
        self.next: Optional[ListNode[T]] = None
        self._list: Optional[DoublyLinkedList[T]] = None

    @property
    def linked(self) -> bool:
        """Whether the node is currently part of a list."""
        return self._list is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ListNode({self.value!r})"


class DoublyLinkedList(Generic[T]):
    """Doubly linked list of :class:`ListNode` objects.

    The *head* is the most-recently-used end for all stacks built on this
    class; the *tail* is the eviction end.
    """

    def __init__(self) -> None:
        self._sentinel: ListNode[T] = ListNode(None)  # type: ignore[arg-type]
        self._sentinel.prev = self._sentinel
        self._sentinel.next = self._sentinel
        self._length = 0

    def __len__(self) -> int:
        return self._length

    def __bool__(self) -> bool:
        return self._length > 0

    # repro: bound O(n) -- a full chain walk by design; lazy, so
    # callers pay only for the prefix they consume
    def __iter__(self) -> Iterator[ListNode[T]]:
        """Iterate nodes from head to tail.

        Iteration tolerates removal of the *current* node but not of the
        node after it.
        """
        node = self._sentinel.next
        while node is not self._sentinel:
            nxt = node.next
            yield node  # type: ignore[misc]
            node = nxt

    # repro: bound O(n) -- a full chain walk by design; lazy, so
    # callers pay only for the suffix they consume
    def iter_reverse(self) -> Iterator[ListNode[T]]:
        """Iterate nodes from tail to head."""
        node = self._sentinel.prev
        while node is not self._sentinel:
            prv = node.prev
            yield node  # type: ignore[misc]
            node = prv

    @property
    def head(self) -> Optional[ListNode[T]]:
        """First node, or ``None`` if the list is empty."""
        return None if self._length == 0 else self._sentinel.next

    @property
    def tail(self) -> Optional[ListNode[T]]:
        """Last node, or ``None`` if the list is empty."""
        return None if self._length == 0 else self._sentinel.prev

    def _check_owned(self, node: ListNode[T]) -> None:
        if node._list is not self:
            raise ProtocolError("node does not belong to this list")

    def _check_free(self, node: ListNode[T]) -> None:
        if node._list is not None:
            raise ProtocolError("node is already linked into a list")

    def _link(self, node: ListNode[T], prev: ListNode[T], nxt: ListNode[T]) -> None:
        node.prev = prev
        node.next = nxt
        prev.next = node
        nxt.prev = node
        node._list = self
        self._length += 1

    def push_front(self, node: ListNode[T]) -> ListNode[T]:
        """Insert ``node`` at the head. Returns the node."""
        self._check_free(node)
        self._link(node, self._sentinel, self._sentinel.next)  # type: ignore[arg-type]
        return node

    def push_back(self, node: ListNode[T]) -> ListNode[T]:
        """Insert ``node`` at the tail. Returns the node."""
        self._check_free(node)
        self._link(node, self._sentinel.prev, self._sentinel)  # type: ignore[arg-type]
        return node

    def insert_before(self, node: ListNode[T], anchor: ListNode[T]) -> ListNode[T]:
        """Insert ``node`` immediately before ``anchor`` (towards the head)."""
        self._check_free(node)
        self._check_owned(anchor)
        self._link(node, anchor.prev, anchor)  # type: ignore[arg-type]
        return node

    def insert_after(self, node: ListNode[T], anchor: ListNode[T]) -> ListNode[T]:
        """Insert ``node`` immediately after ``anchor`` (towards the tail)."""
        self._check_free(node)
        self._check_owned(anchor)
        self._link(node, anchor, anchor.next)  # type: ignore[arg-type]
        return node

    def remove(self, node: ListNode[T]) -> ListNode[T]:
        """Unlink ``node`` from the list. Returns the node."""
        self._check_owned(node)
        node.prev.next = node.next  # type: ignore[union-attr]
        node.next.prev = node.prev  # type: ignore[union-attr]
        node.prev = None
        node.next = None
        node._list = None
        self._length -= 1
        return node

    def move_to_front(self, node: ListNode[T]) -> ListNode[T]:
        """Move an owned node to the head in O(1)."""
        self._check_owned(node)
        if self._sentinel.next is node:
            return node
        self.remove(node)
        return self.push_front(node)

    def move_to_back(self, node: ListNode[T]) -> ListNode[T]:
        """Move an owned node to the tail in O(1)."""
        self._check_owned(node)
        if self._sentinel.prev is node:
            return node
        self.remove(node)
        return self.push_back(node)

    def pop_front(self) -> ListNode[T]:
        """Remove and return the head node."""
        if self._length == 0:
            raise ProtocolError("pop_front on empty list")
        return self.remove(self._sentinel.next)  # type: ignore[arg-type]

    def pop_back(self) -> ListNode[T]:
        """Remove and return the tail node."""
        if self._length == 0:
            raise ProtocolError("pop_back on empty list")
        return self.remove(self._sentinel.prev)  # type: ignore[arg-type]

    def next_towards_head(self, node: ListNode[T]) -> Optional[ListNode[T]]:
        """Node immediately closer to the head, or ``None`` at the head."""
        self._check_owned(node)
        prev = node.prev
        return None if prev is self._sentinel else prev

    def next_towards_tail(self, node: ListNode[T]) -> Optional[ListNode[T]]:
        """Node immediately closer to the tail, or ``None`` at the tail."""
        self._check_owned(node)
        nxt = node.next
        return None if nxt is self._sentinel else nxt

    def values(self) -> Iterator[T]:
        """Iterate the stored values from head to tail."""
        for node in self:
            yield node.value

    def clear(self) -> None:
        """Unlink every node."""
        while self._length:
            self.pop_front()
