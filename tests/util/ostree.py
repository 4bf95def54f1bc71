"""Order-statistic treap: a sorted multiset with O(log n) rank queries.

A test reference: :func:`stack_distances_reference` computes LRU stack
distances over it, the slow oracle the Fenwick-tree profiler in
:mod:`repro.analysis.mrc` is checked against. A treap — a binary search
tree whose heap priorities are drawn from a deterministic PRNG — gives
expected O(log n) insert, delete and rank with very little code.

Keys are compared as plain Python tuples/numbers; duplicate keys are
allowed (the tree is a multiset). Each entry is identified by an opaque
handle so a specific occurrence can be deleted.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.analysis.mrc import COLD_DISTANCE
from repro.errors import ProtocolError
from repro.util.rng import make_stdlib_rng


class _TreapNode:
    __slots__ = ("key", "priority", "left", "right", "size", "parent")

    def __init__(self, key: Any, priority: float) -> None:
        self.key = key
        self.priority = priority
        self.left: Optional[_TreapNode] = None
        self.right: Optional[_TreapNode] = None
        self.parent: Optional[_TreapNode] = None
        self.size = 1


def _size(node: Optional[_TreapNode]) -> int:
    return node.size if node is not None else 0


class OrderStatisticTree:
    """Sorted multiset of keys with rank/select, backed by a treap.

    ``insert`` returns a node handle; ``remove`` and ``rank`` take that
    handle, so equal keys never need disambiguation. Rank 0 is the
    smallest key.
    """

    def __init__(self, seed: int = 0x5EED) -> None:
        # Per-tree PRNG: priorities are deterministic in the seed and
        # isolated from any other random stream in the process.
        self._rng = make_stdlib_rng(seed)
        self._root: Optional[_TreapNode] = None

    def __len__(self) -> int:
        return _size(self._root)

    # -- internal helpers -------------------------------------------------

    def _update(self, node: _TreapNode) -> None:
        node.size = 1 + _size(node.left) + _size(node.right)

    def _set_left(self, node: _TreapNode, child: Optional[_TreapNode]) -> None:
        node.left = child
        if child is not None:
            child.parent = node

    def _set_right(self, node: _TreapNode, child: Optional[_TreapNode]) -> None:
        node.right = child
        if child is not None:
            child.parent = node

    def _merge(
        self, a: Optional[_TreapNode], b: Optional[_TreapNode]
    ) -> Optional[_TreapNode]:
        """Merge treaps where every key in ``a`` <= every key in ``b``."""
        if a is None:
            return b
        if b is None:
            return a
        if a.priority >= b.priority:
            self._set_right(a, self._merge(a.right, b))
            self._update(a)
            return a
        self._set_left(b, self._merge(a, b.left))
        self._update(b)
        return b

    def _split(
        self, node: Optional[_TreapNode], key: Any
    ) -> tuple:
        """Split into (keys < key, keys >= key)."""
        if node is None:
            return None, None
        if node.key < key:
            left, right = self._split(node.right, key)
            self._set_right(node, left)
            self._update(node)
            if right is not None:
                right.parent = None
            node.parent = None
            return node, right
        left, right = self._split(node.left, key)
        self._set_left(node, right)
        self._update(node)
        if left is not None:
            left.parent = None
        node.parent = None
        return left, node

    # -- public API --------------------------------------------------------

    def insert(self, key: Any) -> _TreapNode:
        """Insert ``key``; equal keys are placed adjacent (unspecified order
        among equals). Returns a handle for later removal/rank queries."""
        node = _TreapNode(key, self._rng.random())
        left, right = self._split(self._root, key)
        self._root = self._merge(self._merge(left, node), right)
        if self._root is not None:
            self._root.parent = None
        return node

    def remove(self, handle: _TreapNode) -> None:
        """Remove the entry identified by ``handle`` in O(log n)."""
        merged = self._merge(handle.left, handle.right)
        parent = handle.parent
        if parent is None:
            if self._root is not handle:
                raise ProtocolError("handle does not belong to this tree")
            self._root = merged
            if merged is not None:
                merged.parent = None
        elif parent.left is handle:
            self._set_left(parent, merged)
        elif parent.right is handle:
            self._set_right(parent, merged)
        else:  # pragma: no cover - defensive
            raise ProtocolError("corrupt treap parent link")
        handle.left = handle.right = handle.parent = None
        handle.size = 1
        node = parent
        while node is not None:
            self._update(node)
            node = node.parent

    def rank(self, handle: _TreapNode) -> int:
        """Number of entries strictly before ``handle`` (its 0-based rank)."""
        rank = _size(handle.left)
        node = handle
        while node.parent is not None:
            if node.parent.right is node:
                rank += _size(node.parent.left) + 1
            node = node.parent
        if node is not self._root:
            raise ProtocolError("handle does not belong to this tree")
        return rank

    def rank_of_key(self, key: Any) -> int:
        """Number of entries with keys strictly less than ``key``."""
        rank = 0
        node = self._root
        while node is not None:
            if node.key < key:
                rank += _size(node.left) + 1
                node = node.right
            else:
                node = node.left
        return rank

    def select(self, k: int) -> _TreapNode:
        """Handle of the entry at rank ``k`` (0-based)."""
        if not 0 <= k < len(self):
            raise IndexError(f"rank {k} out of range [0, {len(self)})")
        node = self._root
        while node is not None:
            left = _size(node.left)
            if k < left:
                node = node.left
            elif k == left:
                return node
            else:
                k -= left + 1
                node = node.right
        raise ProtocolError("corrupt treap sizes")  # pragma: no cover

    def keys(self) -> List[Any]:
        """All keys in sorted order (O(n); for tests/debugging)."""
        out: List[Any] = []

        def walk(node: Optional[_TreapNode]) -> None:
            if node is None:
                return
            walk(node.left)
            out.append(node.key)
            walk(node.right)

        walk(self._root)
        return out

    def __iter__(self) -> Iterator[Any]:
        return iter(self.keys())

    def check_invariants(self) -> None:
        """Validate BST order, heap priorities, sizes and parent links.

        O(n); raises :class:`~repro.errors.ProtocolError` on the first
        violation. Driven by the ``--check-invariants`` harness through
        the analysis structures that embed this tree.
        """
        if self._root is not None and self._root.parent is not None:
            raise ProtocolError("treap root has a parent link")

        def walk(node: Optional[_TreapNode]) -> int:
            if node is None:
                return 0
            for child, side in ((node.left, "left"), (node.right, "right")):
                if child is None:
                    continue
                if child.parent is not node:
                    raise ProtocolError(
                        f"treap {side} child of {node.key!r} has a stale "
                        f"parent link"
                    )
                if child.priority > node.priority:
                    raise ProtocolError(
                        f"treap heap order broken at key {node.key!r}"
                    )
            if node.left is not None and node.key < node.left.key:
                raise ProtocolError(
                    f"treap BST order broken left of {node.key!r}"
                )
            if node.right is not None and node.right.key < node.key:
                raise ProtocolError(
                    f"treap BST order broken right of {node.key!r}"
                )
            size = 1 + walk(node.left) + walk(node.right)
            if node.size != size:
                raise ProtocolError(
                    f"treap subtree size at {node.key!r} is {node.size}, "
                    f"recount gives {size}"
                )
            return size

        walk(self._root)


def stack_distances_reference(blocks: Sequence[int]) -> List[int]:
    """Stack distances over an :class:`OrderStatisticTree`.

    Entries are keyed by last-access time; the stack distance of a
    re-reference is the number of entries at or after the block's own
    (``len - rank``). Returns plain ints, :data:`COLD_DISTANCE` for
    first references.
    """
    tree = OrderStatisticTree()
    handles: Dict[int, _TreapNode] = {}
    out: List[int] = []
    for t, block in enumerate(blocks):
        handle = handles.get(block)
        if handle is None:
            out.append(int(COLD_DISTANCE))
        else:
            out.append(len(tree) - tree.rank(handle))
            tree.remove(handle)
        handles[block] = tree.insert(t)
    return out
