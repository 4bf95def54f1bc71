"""Least Recently Used replacement, plus an MRU variant.

LRU is the workhorse of the paper: the client policy in every scheme, the
per-level policy of indLRU, and the basis of uniLRU and of ULC's stacks.
All operations are O(1) over the flat-array slab list
(:mod:`repro.util.intlist`): a block maps to a slab slot, and the recency
stack is splices on ``prev``/``next`` integer arrays — no per-reference
node allocation.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.errors import ProtocolError
from repro.policies.base import Block, ReplacementPolicy
from repro.policies.residency import ResidencyBitmap, as_block_array
from repro.util.intlist import SENTINEL, UNLINKED, IntLinkedList

#: Below this segment length a plain per-reference splice loop beats the
#: vectorised last-occurrence dedupe (numpy call overhead dominates tiny
#: segments).
_DEDUPE_THRESHOLD = 32


class LRUPolicy(ReplacementPolicy):
    """Classic LRU: evict the block whose last reference is oldest."""

    name = "lru"

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._stack = IntLinkedList()
        self._slots: Dict[Block, int] = {}
        self._block_at: List[Optional[Block]] = [None]
        # Residency bitmap for the hit_run kernel: built lazily on the
        # first run past the scalar probe, kept live by _alloc/_release,
        # dropped (back to the exact per-reference path) on unsupported
        # block ids.
        self._bits: Optional[ResidencyBitmap] = None
        # Scratch for the scatter-based last-occurrence dedupe; contents
        # are never read across calls (every gathered entry is written
        # first), so it is allocated uninitialised and only ever grows.
        self._last_pos: Optional[np.ndarray] = None

    def __contains__(self, block: Block) -> bool:
        return block in self._slots

    def __len__(self) -> int:
        return len(self._slots)

    def _alloc(self, block: Block) -> int:
        slot = self._stack.slab.alloc()
        if slot == len(self._block_at):
            self._block_at.append(block)
        else:
            self._block_at[slot] = block
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
        self._stack.slab.free(slot)
        del self._slots[block]
        bits = self._bits
        if bits is not None:
            try:
                bits.discard(block)
            except (TypeError, IndexError):
                self._bits = None
        return block

    def _ensure_bits(self) -> Optional[ResidencyBitmap]:
        """The live residency bitmap, or ``None`` when unsupported."""
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

    def touch(self, block: Block) -> None:
        slot = self._slots.get(block)
        if slot is None:
            self._require_resident(block)
            return  # pragma: no cover - _require_resident raised
        # Inline move_to_front (kernel contract; hot path).
        stack = self._stack
        prv, nxt = stack.prev, stack.next
        if nxt[SENTINEL] == slot:
            return
        p, n = prv[slot], nxt[slot]
        nxt[p] = n
        prv[n] = p
        first = nxt[SENTINEL]
        prv[slot] = SENTINEL
        nxt[slot] = first
        prv[first] = slot
        nxt[SENTINEL] = slot

    def insert(self, block: Block) -> List[Block]:
        slots = self._slots
        if block in slots:
            self._require_absent(block)
        evicted: List[Block] = []
        stack = self._stack
        prv, nxt = stack.prev, stack.next
        if len(slots) >= self.capacity:
            # Inline pop_back of the eviction-end slot.
            tail = prv[SENTINEL]
            p = prv[tail]
            nxt[p] = SENTINEL
            prv[SENTINEL] = p
            prv[tail] = UNLINKED
            nxt[tail] = UNLINKED
            stack.size -= 1
            evicted.append(self._release(tail))
        slot = self._alloc(block)
        first = nxt[SENTINEL]
        prv[slot] = SENTINEL
        nxt[slot] = first
        prv[first] = slot
        nxt[SENTINEL] = slot
        stack.size += 1
        return evicted

    def remove(self, block: Block) -> None:
        self._require_resident(block)
        slot = self._slots[block]
        self._stack.remove(slot)
        self._release(slot)

    def victim(self) -> Optional[Block]:
        if not self.full or not self._stack.size:
            return None
        return self._block_at[self._stack.prev[SENTINEL]]

    def resident(self) -> Iterator[Block]:
        """Iterate blocks from most to least recently used."""
        block_at = self._block_at
        for slot in self._stack:
            block = block_at[slot]
            if block is not None:
                yield block

    # -- the hit-run kernel ------------------------------------------------

    def _touch_segment(self, seg: np.ndarray) -> None:
        """Replay per-reference touches over an all-resident segment.

        Exactness argument: after ``touch(b)`` for each element of
        ``seg`` in order, the stack front holds the segment's *distinct*
        blocks ordered by descending last occurrence (everything else is
        untouched). Touching each distinct block once, in ascending
        last-occurrence order, produces the identical final state in
        O(distinct) splices. Short segments skip the dedupe —
        per-reference splices are cheaper than the numpy calls.

        The dedupe is a sort-free scatter: writing each position into a
        block-indexed scratch leaves every block's *last* position
        (duplicate fancy-index assignments keep the final write), so the
        positions whose scratch entry still equals them are exactly the
        last occurrences, already in ascending order.
        """
        slots = self._slots
        stack = self._stack
        prv, nxt = stack.prev, stack.next
        if seg.shape[0] <= _DEDUPE_THRESHOLD:
            order = seg.tolist()
        else:
            bits = self._bits
            needed = (
                bits.bits.shape[0] if bits is not None
                else int(seg.max()) + 1
            )
            last = self._last_pos
            if last is None or last.shape[0] < needed:
                last = np.empty(needed, dtype=np.int64)
                self._last_pos = last
            positions = np.arange(seg.shape[0], dtype=np.int64)
            last[seg] = positions
            order = seg[last[seg] == positions].tolist()
        for block in order:
            slot = slots[block]
            # Inline move_to_front (kernel contract; hot path).
            if nxt[SENTINEL] == slot:
                continue
            p, n = prv[slot], nxt[slot]
            nxt[p] = n
            prv[n] = p
            first = nxt[SENTINEL]
            prv[slot] = SENTINEL
            nxt[slot] = first
            prv[first] = slot
            nxt[SENTINEL] = slot

    # repro: bound O(n) amortized -- the scalar probe is capped at
    # _DEDUPE_THRESHOLD references and the gather/touch pass visits each
    # consumed reference once
    def hit_run(self, blocks: Sequence[Block]) -> int:
        """Vectorised :meth:`ReplacementPolicy.hit_run`.

        One bitmap gather classifies the whole run; hits never change
        residency, so the batch-start mask is exact for the all-hit
        prefix, which is then touched via :meth:`_touch_segment`.

        A short scalar probe of the leading references runs first: a
        caller may hand this kernel a large window that stops within a
        few references (the batched drive re-probes after every miss),
        and the run must then cost O(consumed), not pay the O(window)
        gather. The probe only reads the residency dict, so falling
        through to the vectorised path replays from an untouched state.
        """
        arr = as_block_array(blocks)
        if arr is None:
            return super().hit_run(blocks)
        n = arr.shape[0]
        if n == 0:
            return 0
        slots = self._slots
        probe = arr[:_DEDUPE_THRESHOLD].tolist()
        for index, block in enumerate(probe):
            if block not in slots:
                for hit in probe[:index]:
                    self.touch(hit)
                return index
        if n <= len(probe):
            for hit in probe:
                self.touch(hit)
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

    def check_invariants(self) -> None:
        """Slot index, stack and residency bitmap must agree."""
        super().check_invariants()
        self._stack.check_invariants()
        if self._stack.size != len(self._slots):
            raise ProtocolError(
                f"{self.name}: stack size {self._stack.size} != "
                f"{len(self._slots)} indexed blocks"
            )
        for block, slot in self._slots.items():
            if self._block_at[slot] != block:
                raise ProtocolError(
                    f"{self.name}: slot {slot} holds "
                    f"{self._block_at[slot]!r}, index says {block!r}"
                )
        bits = self._bits
        if bits is not None:
            flagged = set(np.flatnonzero(bits.bits).tolist())
            if flagged != set(self._slots):
                raise ProtocolError(
                    f"{self.name}: residency bitmap disagrees with the "
                    f"slot index"
                )

    # -- extras used by the unified schemes --------------------------------

    def insert_at_lru_end(self, block: Block) -> List[Block]:
        """Insert ``block`` at the cold (eviction) end of the stack.

        Wong & Wilkes' adaptive multi-client insertion places demoted
        blocks of "cache-polluting" clients at the LRU end instead of the
        MRU end; this hook supports that variant.
        """
        self._require_absent(block)
        evicted: List[Block] = []
        if self.full:
            evicted.append(self._release(self._stack.pop_back()))
        self._stack.push_back(self._alloc(block))
        return evicted

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
        self._require_absent(block)
        evicted: List[Block] = []
        if self.full:
            evicted.append(self._release(self._stack.pop_front()))
        self._stack.push_front(self._alloc(block))
        return evicted

    def victim(self) -> Optional[Block]:
        if not self.full or not self._stack.size:
            return None
        return self._block_at[self._stack.next[SENTINEL]]
