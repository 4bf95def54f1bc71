"""SIEVE replacement — Zhang et al., NSDI 2024.

SIEVE keeps one FIFO-ordered queue plus a single *hand* pointer and a
visited bit per block. Hits only set the visited bit (lazy promotion —
no list movement), so the hit path is O(1) with no splicing at all. On
eviction the hand sweeps from the tail (oldest) end towards the head,
clearing visited bits as it passes survivors, and evicts the first
unvisited block; unlike CLOCK the survivors *stay where they are*, so
newly inserted blocks and retained blocks are naturally separated.

The hand only ever splits the queue in two, so the queue is two
insertion-ordered dicts of block -> visited bit, oldest first:
``_passed`` holds the blocks tailwards of the hand, which this lap has
already swept, and ``_ahead`` the hand's block (its first key) and
everything headwards of it, where new blocks are appended. Whenever
``_ahead`` runs dry the two swap, which is the hand's wrap to the tail.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import chain
from typing import Iterator, List, Optional

from repro.errors import ProtocolError
from repro.policies.base import Block, ReplacementPolicy


class SIEVEPolicy(ReplacementPolicy):
    """SIEVE: FIFO queue + hand pointer with lazy promotion."""

    name = "sieve"

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        #: Blocks the hand has passed this lap, oldest first.
        self._passed: "OrderedDict[Block, bool]" = OrderedDict()
        #: The hand's block and everything newer, oldest first.
        self._ahead: "OrderedDict[Block, bool]" = OrderedDict()

    def __contains__(self, block: Block) -> bool:
        return block in self._ahead or block in self._passed

    def __len__(self) -> int:
        return len(self._ahead) + len(self._passed)

    # repro: bound O(1) amortized -- the sweep clears visited bits;
    # each cleared bit was set by one earlier hit
    def _evict_one(self) -> Block:
        # Each step either evicts the hand's block or clears its bit,
        # so the sweep settles within two laps.
        ahead, passed = self._ahead, self._passed
        while True:
            block, visited = ahead.popitem(last=False)
            if visited:
                passed[block] = False
            if not ahead:  # past the head: wrap to the tail
                ahead, passed = passed, ahead
            if not visited:
                self._ahead, self._passed = ahead, passed
                return block

    # -- ReplacementPolicy interface ---------------------------------------

    def touch(self, block: Block) -> None:
        if block in self._ahead:
            self._ahead[block] = True
        elif block in self._passed:
            self._passed[block] = True
        else:
            self._require_resident(block)

    def insert(self, block: Block) -> List[Block]:
        self._require_absent(block)
        evicted: List[Block] = []
        if len(self) >= self.capacity:
            evicted.append(self._evict_one())
        self._ahead[block] = False
        return evicted

    def remove(self, block: Block) -> None:
        if block in self._ahead:
            del self._ahead[block]
            if not self._ahead:  # the hand's block was the head
                self._ahead, self._passed = self._passed, self._ahead
        elif block in self._passed:
            del self._passed[block]
        else:
            self._require_resident(block)

    # repro: bound O(n) -- pure prediction: simulates the sweep over a
    # snapshot without clearing bits, so it cannot amortize
    def victim(self) -> Optional[Block]:
        """Pure replay of the eviction sweep (no bits are cleared)."""
        if not self.full:
            return None
        for block, visited in chain(self._ahead.items(), self._passed.items()):
            if not visited:
                return block
        # Every bit is set: the sweep clears them all and evicts the
        # hand's block on its second lap.
        return next(iter(self._ahead))

    def resident(self) -> Iterator[Block]:
        """Iterate blocks from newest to oldest."""
        return chain(reversed(self._ahead), reversed(self._passed))

    def check_invariants(self) -> None:
        super().check_invariants()
        if not self._ahead.keys().isdisjoint(self._passed):
            raise ProtocolError(
                "sieve: a block is both ahead of and behind the hand"
            )
        if self._passed and not self._ahead:
            raise ProtocolError(
                "sieve: the hand passed every block without wrapping"
            )
