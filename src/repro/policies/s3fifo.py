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

Each queue is an ``OrderedDict`` whose first key is the FIFO tail (the
oldest block) and last key the head; the frequency counters live in one
dict over every resident block, so a hit is one dict lookup and one
store.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Dict, Iterator, List, Optional

from repro.errors import ProtocolError
from repro.policies.base import Block, ReplacementPolicy
from repro.util.validation import check_finite, check_fraction, check_positive

#: Frequency counters saturate here (2 bits in the paper).
_FREQ_MAX = 3


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
        check_positive("ghost_factor", ghost_factor)
        check_finite("ghost_factor", ghost_factor)
        self.small_target = max(1, int(capacity * small_fraction))
        self.ghost_capacity = max(1, int(capacity * ghost_factor))
        self._small: "OrderedDict[Block, None]" = OrderedDict()
        self._main: "OrderedDict[Block, None]" = OrderedDict()
        # Every resident block -> its saturating counter.
        self._freq: Dict[Block, int] = {}
        self._ghost: "OrderedDict[Block, None]" = OrderedDict()

    def __contains__(self, block: Block) -> bool:
        return block in self._freq

    def __len__(self) -> int:
        return len(self._freq)

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
            if small and (len(small) >= self.small_target or not main):
                block = small.popitem(last=False)[0]
                if freq[block] > 0:
                    freq[block] = 0
                    main[block] = None
                    continue
                del freq[block]
                self._ghost_remember(block)
                return block
            if not main:  # pragma: no cover - defensive
                raise ProtocolError("s3fifo: eviction with empty queues")
            block = next(iter(main))
            if freq[block] > 0:
                freq[block] -= 1
                main.move_to_end(block)
                continue
            del main[block]
            del freq[block]
            return block

    # -- ReplacementPolicy interface ---------------------------------------

    def touch(self, block: Block) -> None:
        freq = self._freq
        count = freq.get(block)
        if count is None:
            self._require_resident(block)
            return  # pragma: no cover - _require_resident raised
        if count < _FREQ_MAX:
            freq[block] = count + 1

    def insert(self, block: Block) -> List[Block]:
        self._require_absent(block)
        evicted: List[Block] = []
        if len(self._freq) >= self.capacity:
            evicted.append(self._evict_one())
        self._freq[block] = 0
        if block in self._ghost:
            del self._ghost[block]
            self._main[block] = None
        else:
            self._small[block] = None
        return evicted

    def remove(self, block: Block) -> None:
        self._require_resident(block)
        del self._freq[block]
        if block in self._small:
            del self._small[block]
        else:
            del self._main[block]

    # repro: bound O(n) -- pure prediction: replays the eviction scan
    # on queue snapshots without mutating frequencies
    def victim(self) -> Optional[Block]:
        """Pure replay of :meth:`_evict_one` on copies of the queues,
        with the counter changes it would make kept in an overlay."""
        if not self.full or not self._freq:
            return None
        freq = self._freq
        small = deque(self._small)  # tail (oldest) first
        main = deque(self._main)
        replayed: Dict[Block, int] = {}
        while True:
            if small and (len(small) >= self.small_target or not main):
                block = small.popleft()
                if freq[block] > 0:
                    replayed[block] = 0
                    main.append(block)
                    continue
                return block
            if not main:  # pragma: no cover - defensive
                raise ProtocolError("s3fifo: victim scan with empty queues")
            block = main.popleft()
            count = replayed.get(block, freq[block])
            if count > 0:
                replayed[block] = count - 1
                main.append(block)
                continue
            return block

    def resident(self) -> Iterator[Block]:
        """Iterate small queue (newest first), then main queue."""
        yield from reversed(self._small)
        yield from reversed(self._main)

    def check_invariants(self) -> None:
        super().check_invariants()
        if len(self._small) + len(self._main) != len(self._freq):
            raise ProtocolError(
                f"s3fifo: queues hold {len(self._small) + len(self._main)} "
                f"blocks, counters track {len(self._freq)}"
            )
        if len(self._ghost) > self.ghost_capacity:
            raise ProtocolError(
                f"s3fifo: {len(self._ghost)} ghosts exceed "
                f"{self.ghost_capacity}"
            )
        for block in self._small:
            if block in self._main:
                raise ProtocolError(
                    f"s3fifo: block {block!r} in both small and main"
                )
        for block, count in self._freq.items():
            if block not in self._small and block not in self._main:
                raise ProtocolError(
                    f"s3fifo: block {block!r} has a counter but no queue"
                )
            if not 0 <= count <= _FREQ_MAX:
                raise ProtocolError(
                    f"s3fifo: block {block!r} has frequency "
                    f"{count} outside [0, {_FREQ_MAX}]"
                )
            if block in self._ghost:
                raise ProtocolError(
                    f"s3fifo: block {block!r} both resident and ghost"
                )
