"""Least Frequently Used replacement with LRU tie-breaking.

Implemented with the classic O(1) frequency-list structure: a list of
frequency buckets, each holding an LRU-ordered list of blocks with that
reference count (an ``OrderedDict`` whose first key is the LRU end).
Included as the canonical frequency-based baseline next to MQ.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional

from repro.errors import ProtocolError
from repro.policies.base import Block, ReplacementPolicy


class LFUPolicy(ReplacementPolicy):
    """Evict the block with the smallest reference count (LRU among ties)."""

    name = "lfu"

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        # frequency -> blocks at that frequency, LRU first.
        self._buckets: Dict[int, "OrderedDict[Block, None]"] = {}
        # block -> frequency
        self._freq: Dict[Block, int] = {}

    def __contains__(self, block: Block) -> bool:
        return block in self._freq

    def __len__(self) -> int:
        return len(self._freq)

    def _unlink(self, block: Block) -> int:
        """Remove ``block`` from its bucket; returns its frequency."""
        freq = self._freq.pop(block)
        bucket = self._buckets[freq]
        del bucket[block]
        if not bucket:
            del self._buckets[freq]
        return freq

    def _link(self, block: Block, freq: int) -> None:
        self._freq[block] = freq
        bucket = self._buckets.get(freq)
        if bucket is None:
            bucket = self._buckets[freq] = OrderedDict()
        bucket[block] = None

    def touch(self, block: Block) -> None:
        self._require_resident(block)
        self._link(block, self._unlink(block) + 1)

    def insert(self, block: Block) -> List[Block]:
        self._require_absent(block)
        evicted: List[Block] = []
        if self.full:
            victim = self.victim()
            if victim is None:
                raise ProtocolError("LFU full but no victim available")
            self._unlink(victim)
            evicted.append(victim)
        self._link(block, 1)
        return evicted

    def remove(self, block: Block) -> None:
        self._require_resident(block)
        self._unlink(block)

    # repro: bound O(n) -- min scan over the occupied frequency
    # buckets (at most one per distinct frequency)
    def victim(self) -> Optional[Block]:
        if not self.full or not self._freq:
            return None
        return next(iter(self._buckets[min(self._buckets)]))

    def resident(self) -> Iterator[Block]:
        return iter(list(self._freq))

    def check_invariants(self) -> None:
        super().check_invariants()
        bucketed = 0
        for freq, bucket in self._buckets.items():
            if not bucket:
                raise ProtocolError(f"lfu: empty bucket for frequency {freq}")
            for block in bucket:
                if self._freq.get(block) != freq:
                    raise ProtocolError(
                        f"lfu: block {block!r} in bucket {freq} has "
                        f"frequency {self._freq.get(block)}"
                    )
            bucketed += len(bucket)
        if bucketed != len(self._freq):
            raise ProtocolError(
                f"lfu: buckets hold {bucketed} blocks, {len(self._freq)} tracked"
            )

    def frequency(self, block: Block) -> int:
        """Current reference count of a resident block (for tests)."""
        self._require_resident(block)
        return self._freq[block]
