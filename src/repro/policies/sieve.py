"""SIEVE replacement — Zhang et al., NSDI 2024.

SIEVE keeps one FIFO-ordered queue plus a single *hand* pointer and a
visited bit per block. Hits only set the visited bit (lazy promotion —
no list movement), so the hit path is O(1) with no splicing at all. On
eviction the hand sweeps from the tail (oldest) end towards the head,
clearing visited bits as it passes survivors, and evicts the first
unvisited block; unlike CLOCK the survivors *stay where they are*, so
newly inserted blocks and retained blocks are naturally separated.

The queue is a slab list (:mod:`repro.util.intlist`): one slot per
resident block, visited bits in a flat slot-indexed array. The hand
needs positions that stay put while blocks around them come and go,
which slab slots give and an ``OrderedDict`` does not.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.errors import ProtocolError
from repro.policies.base import Block, ReplacementPolicy
from repro.util.intlist import IntLinkedList


class SIEVEPolicy(ReplacementPolicy):
    """SIEVE: FIFO queue + hand pointer with lazy promotion."""

    name = "sieve"

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._queue = IntLinkedList()
        self._slots: Dict[Block, int] = {}
        self._block_at: List[Optional[Block]] = [None]
        self._visited: List[bool] = [False]
        #: Slot the next eviction sweep starts from (``None`` = tail).
        self._hand: Optional[int] = None

    def __contains__(self, block: Block) -> bool:
        return block in self._slots

    def __len__(self) -> int:
        return len(self._slots)

    # -- slab bookkeeping --------------------------------------------------

    def _alloc(self, block: Block) -> int:
        slot = self._queue.slab.alloc()
        if slot == len(self._block_at):
            self._block_at.append(block)
            self._visited.append(False)
        else:
            self._block_at[slot] = block
            self._visited[slot] = False
        self._slots[block] = slot
        return slot

    def _release(self, slot: int) -> Block:
        block = self._block_at[slot]
        self._block_at[slot] = None
        self._visited[slot] = False
        self._queue.slab.free(slot)
        del self._slots[block]
        return block

    # -- the sweep ---------------------------------------------------------

    def _sweep_start(self) -> int:
        if self._hand is not None:
            return self._hand
        tail = self._queue.tail
        if tail is None:
            raise ProtocolError("sieve: eviction sweep on empty queue")
        return tail

    def _advance(self, slot: int) -> int:
        """Next sweep position: one step towards the head, wrapping to
        the tail past the head end."""
        nxt = self._queue.next_towards_head(slot)
        if nxt is not None:
            return nxt
        tail = self._queue.tail
        if tail is None:  # pragma: no cover - queue emptied mid-sweep
            raise ProtocolError("sieve: queue emptied during sweep")
        return tail

    # repro: bound O(1) amortized -- the sweep clears visited bits;
    # each cleared bit was set by one earlier hit
    def _evict_one(self) -> Block:
        slot = self._sweep_start()
        visited = self._visited
        queue = self._queue
        # Each pass over a slot either evicts it or clears its bit, so
        # the sweep terminates within two laps.
        for _ in range(2 * len(self._slots) + 1):
            if visited[slot]:
                visited[slot] = False
                slot = self._advance(slot)
                continue
            self._hand = queue.next_towards_head(slot)
            queue.remove(slot)
            return self._release(slot)
        raise ProtocolError("sieve: eviction sweep failed to settle")

    # -- ReplacementPolicy interface ---------------------------------------

    def touch(self, block: Block) -> None:
        slot = self._slots.get(block)
        if slot is None:
            self._require_resident(block)
            return  # pragma: no cover - _require_resident raised
        self._visited[slot] = True

    def insert(self, block: Block) -> List[Block]:
        self._require_absent(block)
        evicted: List[Block] = []
        if len(self._slots) >= self.capacity:
            evicted.append(self._evict_one())
        self._queue.push_front(self._alloc(block))
        return evicted

    def remove(self, block: Block) -> None:
        self._require_resident(block)
        slot = self._slots[block]
        if self._hand == slot:
            self._hand = self._queue.next_towards_head(slot)
        self._queue.remove(slot)
        self._release(slot)

    # repro: bound O(n) -- pure prediction: simulates the sweep over a
    # snapshot without clearing bits, so it cannot amortize
    def victim(self) -> Optional[Block]:
        """Pure replay of the eviction sweep (no bits are cleared)."""
        if not self.full or not self._queue.size:
            return None
        slot = self._sweep_start()
        visited = self._visited
        cleared: set = set()
        for _ in range(2 * len(self._slots) + 1):
            if visited[slot] and slot not in cleared:
                cleared.add(slot)
                slot = self._advance(slot)
                continue
            return self._block_at[slot]
        raise ProtocolError("sieve: victim sweep failed to settle")

    def resident(self) -> Iterator[Block]:
        """Iterate blocks from newest to oldest."""
        block_at = self._block_at
        for slot in self._queue:
            block = block_at[slot]
            if block is not None:
                yield block

    def check_invariants(self) -> None:
        super().check_invariants()
        self._queue.check_invariants()
        if self._queue.size != len(self._slots):
            raise ProtocolError(
                f"sieve: queue size {self._queue.size} != "
                f"{len(self._slots)} indexed blocks"
            )
        for block, slot in self._slots.items():
            if self._block_at[slot] != block:
                raise ProtocolError(
                    f"sieve: slot {slot} holds {self._block_at[slot]!r}, "
                    f"index says {block!r}"
                )
        if self._hand is not None and not self._queue.linked(self._hand):
            raise ProtocolError("sieve: hand points at an unlinked slot")
