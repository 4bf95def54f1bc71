"""2Q replacement — Johnson & Shasha, VLDB 1994.

2Q keeps fresh blocks in a FIFO probation queue ``A1in``; blocks
re-referenced *after* leaving probation (their identity remembered in
the ghost queue ``A1out``) are promoted to the main LRU ``Am``. One-shot
blocks therefore flow through ``A1in`` without ever polluting ``Am`` —
the same one-shot resistance motif the paper's low-level caches need.

Parameters follow the paper's "2Q, Full Version": ``Kin`` (A1in size)
defaults to 25% of the cache and ``Kout`` (A1out ghosts) to 50%.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, List, Optional

from repro.errors import ProtocolError
from repro.policies.base import Block, ReplacementPolicy
from repro.util.validation import check_fraction


class TwoQPolicy(ReplacementPolicy):
    """The full 2Q algorithm.

    Each queue is an ``OrderedDict`` whose first key is the oldest
    (eviction) end and last key the newest.
    """

    name = "2q"

    def __init__(
        self,
        capacity: int,
        kin_fraction: float = 0.25,
        kout_fraction: float = 0.5,
    ) -> None:
        super().__init__(capacity)
        check_fraction("kin_fraction", kin_fraction)
        check_fraction("kout_fraction", kout_fraction)
        self.kin = max(1, int(capacity * kin_fraction))
        if self.kin >= capacity and capacity > 1:
            self.kin = capacity - 1
        self.kout = max(1, int(capacity * kout_fraction))
        self._a1in: "OrderedDict[Block, None]" = OrderedDict()   # FIFO
        self._am: "OrderedDict[Block, None]" = OrderedDict()     # LRU
        self._a1out: "OrderedDict[Block, None]" = OrderedDict()  # ghosts

    def __contains__(self, block: Block) -> bool:
        return block in self._am or block in self._a1in

    def __len__(self) -> int:
        return len(self._a1in) + len(self._am)

    # repro: bound O(1) amortized -- the A1out trim pops at most the
    # ghosts earlier evictions pushed
    def _evict_one(self) -> Block:
        """Reclaim per 2Q: prefer the A1in tail (remembering its ghost),
        otherwise the Am LRU tail."""
        if len(self._a1in) > self.kin or not self._am:
            victim = self._a1in.popitem(last=False)[0]
            a1out = self._a1out
            a1out[victim] = None
            while len(a1out) > self.kout:
                a1out.popitem(last=False)
        else:
            victim = self._am.popitem(last=False)[0]
        return victim

    def touch(self, block: Block) -> None:
        am = self._am
        if block in am:
            am.move_to_end(block)
            return
        # A hit in A1in leaves the block in place (2Q's defining rule:
        # correlated re-references inside probation prove nothing).
        self._require_resident(block)

    def insert(self, block: Block) -> List[Block]:
        self._require_absent(block)
        evicted: List[Block] = []
        if self.full:
            evicted.append(self._evict_one())
        if block in self._a1out:
            del self._a1out[block]
            self._am[block] = None
        else:
            self._a1in[block] = None
        return evicted

    def remove(self, block: Block) -> None:
        self._require_resident(block)
        if block in self._am:
            del self._am[block]
        else:
            del self._a1in[block]

    def victim(self) -> Optional[Block]:
        if not self.full:
            return None
        if len(self._a1in) > self.kin or not self._am:
            return next(iter(self._a1in))
        return next(iter(self._am))

    def resident(self) -> Iterator[Block]:
        yield from reversed(self._a1in)
        yield from reversed(self._am)

    def check_invariants(self) -> None:
        super().check_invariants()
        if len(self._a1out) > self.kout:
            raise ProtocolError(
                f"2q: {len(self._a1out)} ghosts exceed Kout={self.kout}"
            )
        for block in self._a1in:
            if block in self._am:
                raise ProtocolError(f"2q: block {block!r} in both A1in and Am")
        for block in self._a1out:
            if block in self:
                raise ProtocolError(f"2q: block {block!r} both resident and ghost")

    def in_ghost(self, block: Block) -> bool:
        """Whether A1out remembers ``block`` (tests)."""
        return block in self._a1out

    def queue_of(self, block: Block) -> str:
        """``"a1in"`` or ``"am"`` for a resident block (tests)."""
        self._require_resident(block)
        return "am" if block in self._am else "a1in"
