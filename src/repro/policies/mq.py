"""Multi-Queue (MQ) replacement — Zhou, Philbin & Li, USENIX 2001.

MQ was designed for *second-level* buffer caches, whose access streams
have had their recency skimmed off by the client cache. It maintains
``num_queues`` LRU queues Q0..Qm-1 plus a ghost queue Qout of recently
evicted block identities:

- A resident block with reference count ``f`` lives in queue
  ``min(log2(f), m-1)``.
- On every access the block moves to the MRU end of its queue and its
  ``expire_time`` is set to ``current_time + life_time``.
- ``Adjust()``: when the LRU block of a queue has expired, it is demoted
  one queue down (to the MRU end) and its timer restarts — this lets MQ
  respond to blocks that cool off.
- On eviction the victim is the LRU block of the lowest non-empty queue;
  its identity and reference count are remembered in Qout (FIFO), so a
  quick re-reference can re-enter a high queue.

This is the comparison scheme used in Figure 7 of the ULC paper (LRU at
the client, MQ at the server).

Each queue is an ``OrderedDict`` from block to its ``expire_time``, whose
first key is the LRU end; two dicts hold each resident block's reference
count and queue index, and Qout is an ``OrderedDict`` from block to its
reference count at eviction.

Every enqueue stamps ``current_time + life_time`` and time never runs
backwards, so expiry times never fall along a queue. A lower bound on
the expiry of every block in queues 1..m-1 therefore lets ``Adjust()``
return at once on the references where nothing can have expired.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional

from repro.errors import ProtocolError
from repro.policies.base import Block, ReplacementPolicy
from repro.util.validation import check_int, check_non_negative, check_positive


class MQPolicy(ReplacementPolicy):
    """Multi-Queue replacement for second-level buffer caches.

    Args:
        capacity: cache size in blocks.
        num_queues: number of frequency queues (``m``; the paper uses 8).
        life_time: accesses a block may sit unreferenced in its queue
            before being demoted one queue down. Zhou et al. recommend the
            peak temporal distance; by default we use ``4 * capacity``
            which approximates that for the paper's workloads.
        ghost_capacity: Qout size in block identities; defaults to
            ``4 * capacity`` following the original evaluation.
    """

    name = "mq"

    def __init__(
        self,
        capacity: int,
        num_queues: int = 8,
        life_time: Optional[int] = None,
        ghost_capacity: Optional[int] = None,
    ) -> None:
        super().__init__(capacity)
        check_int("num_queues", num_queues)
        check_positive("num_queues", num_queues)
        self.num_queues = num_queues
        self.life_time = life_time if life_time is not None else 4 * capacity
        check_positive("life_time", self.life_time)
        self.ghost_capacity = (
            ghost_capacity if ghost_capacity is not None else 4 * capacity
        )
        check_non_negative("ghost_capacity", self.ghost_capacity)
        # Queue i: block -> expire_time, LRU first.
        self._queues: List["OrderedDict[Block, int]"] = [
            OrderedDict() for _ in range(num_queues)
        ]
        self._frequency: Dict[Block, int] = {}
        self._queue_index: Dict[Block, int] = {}
        # Qout: block -> frequency at eviction, FIFO order preserved.
        self._ghost: "OrderedDict[Block, int]" = OrderedDict()
        self._time = 0
        # No block of queues 1..m-1 expires before this time.
        self._expiry_bound: float = math.inf

    # -- plumbing -----------------------------------------------------------

    def _enqueue(self, block: Block, frequency: int) -> None:
        """Place ``block`` at the MRU end of the queue of ``frequency``
        with a fresh expiry time."""
        # floor(log2(f)), clamped to the top queue
        index = min(max(0, frequency.bit_length() - 1), self.num_queues - 1)
        expiry = self._time + self.life_time
        self._frequency[block] = frequency
        self._queue_index[block] = index
        self._queues[index][block] = expiry
        if index and expiry < self._expiry_bound:
            self._expiry_bound = expiry

    def _dequeue(self, block: Block) -> int:
        """Drop ``block`` from its queue; returns its reference count."""
        del self._queues[self._queue_index.pop(block)][block]
        return self._frequency.pop(block)

    # repro: bound O(1) amortized -- Zhou's Adjust(): each demotion
    # moves a block one queue down, prepaid by the promotion that
    # raised it
    def _adjust(self) -> None:
        """Demote expired LRU blocks one queue down (Zhou's Adjust()).

        Returns at once while no block can have expired; a scan
        recomputes the bound from the queue heads it stops at and from
        the blocks it demotes into queues it has already passed.
        """
        time = self._time
        if time <= self._expiry_bound:
            return
        queues = self._queues
        bound = math.inf
        for index in range(1, self.num_queues):
            queue = queues[index]
            while queue:
                block = next(iter(queue))
                expiry = queue[block]
                if expiry >= time:
                    if expiry < bound:
                        bound = expiry
                    break
                del queue[block]
                self._queue_index[block] = index - 1
                expiry = time + self.life_time
                queues[index - 1][block] = expiry
                if index > 1 and expiry < bound:
                    bound = expiry
        self._expiry_bound = bound

    # repro: bound O(1) amortized -- the ghost trim pops at most the
    # entries earlier calls pushed
    def _remember_ghost(self, block: Block, frequency: int) -> None:
        if self.ghost_capacity == 0:
            return
        ghost = self._ghost
        ghost.pop(block, None)
        ghost[block] = frequency
        while len(ghost) > self.ghost_capacity:
            ghost.popitem(last=False)

    # -- ReplacementPolicy interface ----------------------------------------

    def __contains__(self, block: Block) -> bool:
        return block in self._frequency

    def __len__(self) -> int:
        return len(self._frequency)

    def touch(self, block: Block) -> None:
        index = self._queue_index.get(block)
        if index is None:
            self._require_resident(block)
            return  # pragma: no cover - _require_resident raised
        self._time += 1
        del self._queues[index][block]
        self._enqueue(block, self._frequency[block] + 1)
        self._adjust()

    def insert(self, block: Block) -> List[Block]:
        frequency = self._frequency
        if block in frequency:
            self._require_absent(block)
        self._time += 1
        evicted: List[Block] = []
        if len(frequency) >= self.capacity:
            for queue in self._queues:
                if queue:
                    victim = next(iter(queue))
                    break
            else:
                raise ProtocolError("MQ full but no victim available")
            self._remember_ghost(victim, self._dequeue(victim))
            evicted.append(victim)
        self._enqueue(block, self._ghost.pop(block, 0) + 1)
        self._adjust()
        return evicted

    def remove(self, block: Block) -> None:
        self._require_resident(block)
        self._dequeue(block)

    def victim(self) -> Optional[Block]:
        if not self.full or not self._frequency:
            return None
        for queue in self._queues:
            if queue:
                return next(iter(queue))
        return None  # pragma: no cover - unreachable

    def resident(self) -> Iterator[Block]:
        for queue in self._queues:
            yield from reversed(queue)

    def check_invariants(self) -> None:
        super().check_invariants()
        queued = sum(len(queue) for queue in self._queues)
        if queued != len(self._frequency) or queued != len(self._queue_index):
            raise ProtocolError(
                f"mq: queues hold {queued} blocks, counts track "
                f"{len(self._frequency)} and queue indices "
                f"{len(self._queue_index)}"
            )
        for index, queue in enumerate(self._queues):
            for block in queue:
                if self._queue_index.get(block) != index:
                    raise ProtocolError(
                        f"mq: block {block!r} in queue {index} is indexed "
                        f"at queue {self._queue_index.get(block)}"
                    )
                if self._frequency.get(block, 0) < 1:
                    raise ProtocolError(
                        f"mq: block {block!r} has reference count "
                        f"{self._frequency.get(block)}"
                    )
        earliest = min(
            (min(queue.values()) for queue in self._queues[1:] if queue),
            default=math.inf,
        )
        if earliest < self._expiry_bound:
            raise ProtocolError(
                f"mq: a block expires at {earliest}, before the expiry "
                f"bound {self._expiry_bound}"
            )
        if len(self._ghost) > self.ghost_capacity:
            raise ProtocolError(
                f"mq: {len(self._ghost)} ghosts exceed {self.ghost_capacity}"
            )
        for block in self._ghost:
            if block in self._frequency:
                raise ProtocolError(
                    f"mq: block {block!r} both resident and ghost"
                )

    # -- introspection for tests ---------------------------------------------

    def queue_of(self, block: Block) -> int:
        """Queue index a resident block currently sits in."""
        self._require_resident(block)
        return self._queue_index[block]

    def frequency_of(self, block: Block) -> int:
        """Reference count of a resident block."""
        self._require_resident(block)
        return self._frequency[block]

    def in_ghost(self, block: Block) -> bool:
        """Whether Qout currently remembers ``block``."""
        return block in self._ghost
