"""CLOCK (second-chance) replacement.

CLOCK approximates LRU with a circular scan and per-block reference bits;
it is what most operating systems actually run, so it serves as a
realistic stand-in for "the client's kernel page cache" in ablations.

The ring is the same ``OrderedDict`` as
:class:`~repro.policies.lru.LRUPolicy`, with each block's reference bit
as its value: the first key is the hand position, the last the most
recent insert. A hit only sets the bit; the hand gives a second chance
by clearing it and moving the block to the end.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.policies.base import Block, ReplacementPolicy
from repro.policies.lru import LRUPolicy


class CLOCKPolicy(LRUPolicy):
    """Second-chance replacement over a circular list of blocks.

    The hand sweeps from the oldest entry; entries with the reference bit
    set get the bit cleared and a second chance, the first entry found
    with a clear bit is evicted.
    """

    name = "clock"

    # A hit sets a bit and moves nothing, so the all-hit prefix is the
    # default touch loop rather than LRU's moving one.
    hit_run = ReplacementPolicy.hit_run

    def touch(self, block: Block) -> None:
        order = self._order
        if block not in order:
            self._require_resident(block)
        order[block] = True

    # repro: bound O(1) amortized -- the hand sweep clears reference
    # bits; each cleared bit was set by one earlier hit
    def insert(self, block: Block) -> List[Block]:
        order = self._order
        if block in order:
            self._require_absent(block)
        evicted: List[Block] = []
        if len(order) >= self.capacity:
            # Sweep the hand (first key), clearing reference bits, to
            # the first second-chance-exhausted entry.
            while True:
                head, referenced = order.popitem(last=False)
                if not referenced:
                    break
                order[head] = False
            evicted.append(head)
        order[block] = False
        return evicted

    # repro: bound O(n) -- pure prediction: simulates the sweep over a
    # snapshot without clearing bits, so it cannot amortize
    def victim(self) -> Optional[Block]:
        """Predict the next eviction without moving the hand.

        The prediction simulates the sweep over a snapshot: the victim is
        the first entry (in hand order) with a clear reference bit, or the
        current hand position if every bit is set.
        """
        if not self.full:
            return None
        for block, referenced in self._order.items():
            if not referenced:
                return block
        return next(iter(self._order))

    def resident(self) -> Iterator[Block]:
        """Iterate blocks in hand order, oldest first."""
        return iter(self._order)
