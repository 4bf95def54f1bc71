"""Least Recently Used replacement, plus an MRU variant.

LRU is the workhorse of the paper: the client policy of the
policy-composed schemes, the per-level policy of indLRU, and the server
of the eviction-based and cooperative schemes (DEMOTE keeps the same
orders as plain ``OrderedDict`` s of its own). The recency stack is one
``OrderedDict`` whose first key is the LRU (eviction) end: a hit is a
``move_to_end``, an eviction a ``popitem(last=False)``, each O(1).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, List, Optional, Sequence

from repro.policies.base import Block, ReplacementPolicy


class LRUPolicy(ReplacementPolicy):
    """Classic LRU: evict the block whose last reference is oldest."""

    name = "lru"

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        # Resident blocks, least recently used first.
        self._order: "OrderedDict[Block, object]" = OrderedDict()

    def __contains__(self, block: Block) -> bool:
        return block in self._order

    def __len__(self) -> int:
        return len(self._order)

    def touch(self, block: Block) -> None:
        try:
            self._order.move_to_end(block)
        except KeyError:
            self._require_resident(block)

    def insert(self, block: Block) -> List[Block]:
        order = self._order
        if block in order:
            self._require_absent(block)
        evicted: List[Block] = []
        if len(order) >= self.capacity:
            evicted.append(order.popitem(last=False)[0])
        order[block] = None
        return evicted

    def remove(self, block: Block) -> None:
        self._require_resident(block)
        del self._order[block]

    def victim(self) -> Optional[Block]:
        if not self.full:
            return None
        return next(iter(self._order))

    def resident(self) -> Iterator[Block]:
        """Iterate blocks from most to least recently used."""
        return reversed(self._order)

    def hit_run(self, blocks: Sequence[Block]) -> int:
        """:meth:`ReplacementPolicy.hit_run` with each hit a
        ``move_to_end``. An array window is read through a
        ``memoryview``, which yields plain ints without copying it, so
        a run that stops early costs what it consumed."""
        order = self._order
        move_to_end = order.move_to_end
        if hasattr(blocks, "tolist"):
            blocks = memoryview(blocks)
        count = 0
        for block in blocks:
            if block not in order:
                break
            move_to_end(block)
            count += 1
        return count

    def recency_order(self) -> List[Block]:
        """Snapshot of blocks from MRU to LRU (O(n); tests/analysis)."""
        return list(self.resident())


class MRUPolicy(LRUPolicy):
    """Most Recently Used: evict the block referenced most recently.

    MRU is optimal for pure cyclic scans that exceed the cache size, which
    makes it a useful extra baseline for the looping workloads (``cs``,
    ``tpcc1``) discussed in the paper.
    """

    name = "mru"

    def insert(self, block: Block) -> List[Block]:
        order = self._order
        if block in order:
            self._require_absent(block)
        evicted: List[Block] = []
        if len(order) >= self.capacity:
            evicted.append(order.popitem()[0])
        order[block] = None
        return evicted

    def victim(self) -> Optional[Block]:
        if not self.full:
            return None
        return next(reversed(self._order))
