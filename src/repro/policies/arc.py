"""ARC — Adaptive Replacement Cache (Megiddo & Modha, FAST 2003).

ARC balances recency (list T1) against frequency (list T2) with ghost
lists B1/B2 steering an adaptation parameter ``p``. It is contemporary
with the ULC paper and serves as an additional single-level baseline in
the extension benchmarks.

Lists (all LRU-ordered; each is an ``OrderedDict`` whose first key is
the LRU end and last key the MRU end):

- T1: resident, seen exactly once recently.
- T2: resident, seen at least twice recently.
- B1/B2: ghosts of blocks evicted from T1/T2.

Invariant: ``len(T1) + len(T2) <= capacity`` and
``len(T1) + len(B1) <= capacity`` and total tracked <= 2 * capacity.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, List, Optional, Tuple

from repro.errors import ProtocolError
from repro.policies.base import Block, ReplacementPolicy


class ARCPolicy(ReplacementPolicy):
    """Adaptive Replacement Cache."""

    name = "arc"

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._t1: "OrderedDict[Block, None]" = OrderedDict()
        self._t2: "OrderedDict[Block, None]" = OrderedDict()
        self._b1: "OrderedDict[Block, None]" = OrderedDict()
        self._b2: "OrderedDict[Block, None]" = OrderedDict()
        self._p = 0.0  # target size of T1

    def _named_lists(self) -> Tuple[Tuple[str, "OrderedDict[Block, None]"], ...]:
        return (
            ("T1", self._t1), ("T2", self._t2),
            ("B1", self._b1), ("B2", self._b2),
        )

    def _replace(self, in_b2: bool) -> Block:
        """Evict from T1 or T2 per the REPLACE subroutine; ghost kept."""
        t1 = self._t1
        t1_len = len(t1)
        if t1_len > 0 and (
            t1_len > self._p or (in_b2 and t1_len == int(self._p))
        ):
            victim = t1.popitem(last=False)[0]
            self._b1[victim] = None
        else:
            victim = self._t2.popitem(last=False)[0]
            self._b2[victim] = None
        return victim

    # -- ReplacementPolicy interface -------------------------------------------

    def __contains__(self, block: Block) -> bool:
        return block in self._t1 or block in self._t2

    def __len__(self) -> int:
        return len(self._t1) + len(self._t2)

    def touch(self, block: Block) -> None:
        t2 = self._t2
        if block in t2:
            t2.move_to_end(block)
            return
        self._require_resident(block)
        del self._t1[block]
        t2[block] = None

    def insert(self, block: Block) -> List[Block]:
        self._require_absent(block)
        t1, t2, b1, b2 = self._t1, self._t2, self._b1, self._b2
        evicted: List[Block] = []
        capacity = self.capacity

        if block in b1:
            # Ghost hit in B1: favour recency.
            delta = max(1.0, len(b2) / max(1, len(b1)))
            self._p = min(float(capacity), self._p + delta)
            if self.full:
                evicted.append(self._replace(in_b2=False))
            del b1[block]
            t2[block] = None
            return evicted

        if block in b2:
            # Ghost hit in B2: favour frequency.
            delta = max(1.0, len(b1) / max(1, len(b2)))
            self._p = max(0.0, self._p - delta)
            if self.full:
                evicted.append(self._replace(in_b2=True))
            del b2[block]
            t2[block] = None
            return evicted

        # Completely new block (case IV of the paper).
        l1 = len(t1) + len(b1)
        l2 = len(t2) + len(b2)
        if l1 == capacity:
            if len(t1) < capacity:
                b1.popitem(last=False)
                if self.full:
                    evicted.append(self._replace(in_b2=False))
            else:
                evicted.append(t1.popitem(last=False)[0])
        elif l1 < capacity and l1 + l2 >= capacity:
            if l1 + l2 == 2 * capacity:
                b2.popitem(last=False)
            if self.full:
                evicted.append(self._replace(in_b2=False))
        t1[block] = None
        return evicted

    def remove(self, block: Block) -> None:
        self._require_resident(block)
        if block in self._t1:
            del self._t1[block]
        else:
            del self._t2[block]

    def victim(self) -> Optional[Block]:
        """Victim a brand-new insert would evict (approximate peek)."""
        if not self.full:
            return None
        t1 = self._t1
        if t1 and (len(t1) > self._p or not self._t2):
            return next(iter(t1))
        return next(iter(self._t2))

    def resident(self) -> Iterator[Block]:
        yield from reversed(self._t1)
        yield from reversed(self._t2)

    def check_invariants(self) -> None:
        super().check_invariants()
        capacity = self.capacity
        sizes = {name: len(lst) for name, lst in self._named_lists()}
        tracked = sum(sizes.values())
        if sizes["T1"] + sizes["B1"] > capacity:
            raise ProtocolError(
                f"arc: |T1|+|B1| = {sizes['T1'] + sizes['B1']} exceeds c={capacity}"
            )
        if tracked > 2 * capacity:
            raise ProtocolError(
                f"arc: directory holds {tracked} blocks, limit {2 * capacity}"
            )
        if not 0.0 <= self._p <= capacity:
            raise ProtocolError(f"arc: adaptation target p={self._p} outside [0, c]")
        distinct = {block for _, lst in self._named_lists() for block in lst}
        if len(distinct) != tracked:
            raise ProtocolError(
                f"arc: {tracked - len(distinct)} blocks sit in more than one list"
            )

    # -- introspection ----------------------------------------------------------

    @property
    def p(self) -> float:
        """Current adaptation target for T1's size."""
        return self._p

    def list_of(self, block: Block) -> Optional[str]:
        """Which ARC list currently tracks ``block`` (or ``None``)."""
        for name, lst in self._named_lists():
            if block in lst:
                return name
        return None
