"""S3-FIFO replacement — Yang et al., SOSP 2023.

Three FIFO queues: a *small* probationary queue (~10% of capacity) that
absorbs one-hit wonders, a *main* queue holding blocks that proved
reuse, and a *ghost* queue of recently evicted small-queue block ids.
Hits only bump a per-block frequency counter capped at
:data:`_FREQ_MAX` (lazy promotion); evictions do the work:

- small-queue tail: promoted to main if it was re-referenced while in
  small (accessed more than once in total, i.e. at least one hit),
  otherwise evicted and remembered in the ghost queue (quick demotion);
- main-queue tail: reinserted at the main head with its counter
  decremented while ``freq > 0`` — a FIFO approximation of LRU that
  never pays a hit-path splice;
- a miss on a ghost-listed block goes straight into main.

Both resident queues are slab lists over one shared
:class:`~repro.util.intlist.IntSlab`; the frequency counters live in a
flat slot-indexed array, so the hit path is one dict lookup and one
array write.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.errors import ProtocolError
from repro.policies.base import Block, ReplacementPolicy
from repro.policies.residency import ResidencyBitmap, as_block_array
from repro.util.intlist import IntLinkedList, IntSlab
from repro.util.validation import check_fraction

#: Frequency counters saturate here (2 bits in the paper).
_FREQ_MAX = 3

_PROBE = 32


class S3FIFOPolicy(ReplacementPolicy):
    """S3-FIFO: small/main/ghost FIFO queues with lazy promotion.

    Args:
        capacity: total resident blocks.
        small_fraction: share of capacity given to the small queue
            (default 0.1; at least one block).
        ghost_factor: ghost-queue bound as a multiple of capacity
            (default 1.0).
    """

    name = "s3fifo"

    def __init__(
        self,
        capacity: int,
        small_fraction: float = 0.1,
        ghost_factor: float = 1.0,
    ) -> None:
        super().__init__(capacity)
        check_fraction("small_fraction", small_fraction)
        if ghost_factor <= 0:
            raise ProtocolError(
                f"ghost_factor must be positive, got {ghost_factor}"
            )
        self.small_target = max(1, int(capacity * small_fraction))
        self.ghost_capacity = max(1, int(capacity * ghost_factor))
        self._slab = IntSlab()
        self._small = IntLinkedList(self._slab)
        self._main = IntLinkedList(self._slab)
        self._slots: Dict[Block, int] = {}
        self._block_at: List[Optional[Block]] = [None]
        self._freq: List[int] = [0]
        self._ghost: "OrderedDict[Block, None]" = OrderedDict()
        self._bits: Optional[ResidencyBitmap] = None

    def __contains__(self, block: Block) -> bool:
        return block in self._slots

    def __len__(self) -> int:
        return len(self._slots)

    # -- slab bookkeeping --------------------------------------------------

    def _alloc(self, block: Block) -> int:
        slot = self._slab.alloc()
        if slot == len(self._block_at):
            self._block_at.append(block)
            self._freq.append(0)
        else:
            self._block_at[slot] = block
            self._freq[slot] = 0
        self._slots[block] = slot
        bits = self._bits
        if bits is not None:
            try:
                bits.add(block)
            except (TypeError, IndexError):
                self._bits = None
        return slot

    def _release(self, slot: int) -> Block:
        block = self._block_at[slot]
        self._block_at[slot] = None
        self._freq[slot] = 0
        self._slab.free(slot)
        del self._slots[block]
        bits = self._bits
        if bits is not None:
            try:
                bits.discard(block)
            except (TypeError, IndexError):
                self._bits = None
        return block

    def _ensure_bits(self) -> Optional[ResidencyBitmap]:
        bits = self._bits
        if bits is None:
            try:
                bits = ResidencyBitmap(
                    self._slots, size_hint=2 * self.capacity
                )
            except (TypeError, IndexError):
                return None
            self._bits = bits
        return bits

    # repro: bound O(1) amortized -- the ghost trim pops at most the
    # entries earlier calls pushed
    def _ghost_remember(self, block: Block) -> None:
        ghost = self._ghost
        if block in ghost:
            ghost.move_to_end(block)
        else:
            ghost[block] = None
            while len(ghost) > self.ghost_capacity:
                ghost.popitem(last=False)

    # -- eviction ----------------------------------------------------------

    # repro: bound O(1) amortized -- every small pass either evicts or
    # moves one block to main; every main pass either evicts or
    # decrements a counter some touch incremented
    def _evict_one(self) -> Block:
        """Free exactly one resident block and return it.

        Terminates: every small pass either evicts or moves a block to
        main (small shrinks), every main pass either evicts or
        decrements a positive counter.
        """
        small, main, freq = self._small, self._main, self._freq
        while True:
            if small and (small.size >= self.small_target or not main):
                slot = small.pop_back()
                if freq[slot] > 0:
                    freq[slot] = 0
                    main.push_front(slot)
                    continue
                block = self._block_at[slot]
                self._ghost_remember(block)
                self._release(slot)
                return block
            if not main:  # pragma: no cover - defensive
                raise ProtocolError("s3fifo: eviction with empty queues")
            slot = main.pop_back()
            if freq[slot] > 0:
                freq[slot] -= 1
                main.push_front(slot)
                continue
            return self._release(slot)

    # -- ReplacementPolicy interface ---------------------------------------

    def touch(self, block: Block) -> None:
        slot = self._slots.get(block)
        if slot is None:
            self._require_resident(block)
            return  # pragma: no cover - _require_resident raised
        freq = self._freq
        if freq[slot] < _FREQ_MAX:
            freq[slot] += 1

    def insert(self, block: Block) -> List[Block]:
        self._require_absent(block)
        evicted: List[Block] = []
        if len(self._slots) >= self.capacity:
            evicted.append(self._evict_one())
        if block in self._ghost:
            del self._ghost[block]
            self._main.push_front(self._alloc(block))
        else:
            self._small.push_front(self._alloc(block))
        return evicted

    def remove(self, block: Block) -> None:
        self._require_resident(block)
        slot = self._slots[block]
        if self._small.linked(slot):
            self._small.remove(slot)
        else:
            self._main.remove(slot)
        self._release(slot)

    # repro: bound O(n) -- pure prediction: replays the eviction scan
    # on queue snapshots without mutating frequencies
    def victim(self) -> Optional[Block]:
        """Pure replay of :meth:`_evict_one` on snapshots."""
        if not self.full or not self._slots:
            return None
        freq = self._freq
        small = self._small.to_list()  # head .. tail
        main = self._main.to_list()
        main_extra: List[int] = []  # reinserted at the main head
        small_size = len(small)
        spent: Dict[int, int] = {}
        moved: set = set()
        while True:
            if small and (small_size >= self.small_target or not (main or main_extra)):
                slot = small.pop()  # tail
                small_size -= 1
                if freq[slot] > 0:
                    moved.add(slot)
                    main_extra.append(slot)
                    continue
                return self._block_at[slot]
            if main:
                slot = main.pop()
            elif main_extra:
                slot = main_extra.pop(0)
            else:  # pragma: no cover - defensive
                raise ProtocolError("s3fifo: victim scan with empty queues")
            effective = (0 if slot in moved else freq[slot]) - spent.get(slot, 0)
            if effective > 0:
                spent[slot] = spent.get(slot, 0) + 1
                main_extra.append(slot)
                continue
            return self._block_at[slot]

    def resident(self) -> Iterator[Block]:
        """Iterate small queue (newest first), then main queue."""
        block_at = self._block_at
        for lst in (self._small, self._main):
            for slot in lst:
                block = block_at[slot]
                if block is not None:
                    yield block

    # -- the hit-run kernel ------------------------------------------------

    # repro: bound O(n) amortized -- the scalar probe is capped at
    # _PROBE references and the counter scatter visits each consumed
    # reference once
    def hit_run(self, blocks: Sequence[Block]) -> int:
        """Vectorised all-hit prefix.

        A hit only increments a saturating counter, so the loop over a
        resident prefix is reproduced exactly by adding each block's
        occurrence count to its counter (clamped at :data:`_FREQ_MAX`).
        """
        arr = as_block_array(blocks)
        if arr is None:
            return super().hit_run(blocks)
        n = arr.shape[0]
        if n == 0:
            return 0
        slots = self._slots
        freq = self._freq
        probe = arr[:_PROBE].tolist()
        for index, block in enumerate(probe):
            if block not in slots:
                for hit in probe[:index]:
                    slot = slots[hit]
                    if freq[slot] < _FREQ_MAX:
                        freq[slot] += 1
                return index
        if n <= len(probe):
            for hit in probe:
                slot = slots[hit]
                if freq[slot] < _FREQ_MAX:
                    freq[slot] += 1
            return n
        bits_map = self._ensure_bits()
        if bits_map is None:
            return super().hit_run(blocks)
        try:
            bits_map.ensure(int(arr.max()))
        except IndexError:
            return super().hit_run(blocks)
        misses = np.flatnonzero(~bits_map.bits[arr])
        stop = n if misses.shape[0] == 0 else int(misses[0])
        if stop:
            self._touch_segment(arr[:stop])
        return stop

    def _touch_segment(self, seg: np.ndarray) -> None:
        """Replay per-reference touches over an all-resident segment:
        each touch adds one to a saturating counter, so adding each
        block's occurrence count (clamped) is exact."""
        slots = self._slots
        freq = self._freq
        uniques, counts = np.unique(seg, return_counts=True)
        for block, count in zip(uniques.tolist(), counts.tolist()):
            slot = slots[block]
            total = freq[slot] + count
            freq[slot] = total if total < _FREQ_MAX else _FREQ_MAX

    def check_invariants(self) -> None:
        super().check_invariants()
        self._small.check_invariants()
        self._main.check_invariants()
        if self._small.size + self._main.size != len(self._slots):
            raise ProtocolError(
                f"s3fifo: queues hold {self._small.size + self._main.size} "
                f"slots, index tracks {len(self._slots)}"
            )
        if len(self._ghost) > self.ghost_capacity:
            raise ProtocolError(
                f"s3fifo: {len(self._ghost)} ghosts exceed "
                f"{self.ghost_capacity}"
            )
        for block, slot in self._slots.items():
            if self._block_at[slot] != block:
                raise ProtocolError(
                    f"s3fifo: slot {slot} holds {self._block_at[slot]!r}, "
                    f"index says {block!r}"
                )
            if not 0 <= self._freq[slot] <= _FREQ_MAX:
                raise ProtocolError(
                    f"s3fifo: block {block!r} has frequency "
                    f"{self._freq[slot]} outside [0, {_FREQ_MAX}]"
                )
            if block in self._ghost:
                raise ProtocolError(
                    f"s3fifo: block {block!r} both resident and ghost"
                )
