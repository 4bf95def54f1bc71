"""Belady's optimal replacement (OPT / MIN).

OPT evicts the resident block whose next reference is farthest in the
future. It is offline: the policy is constructed with the full future
reference string and keeps an internal clock that advances on every
:meth:`access`-path operation. The paper uses OPT's ranking measure (next
distance, ND) as the gold standard in Section 2 and OPT itself is the
natural upper bound for the aggregate-size oracle in
:mod:`repro.hierarchy.oracle`.

Implementation: next-use indices are precomputed in one reverse pass;
eviction uses a lazy max-heap keyed by next-use time, giving
O(log n) amortised per reference.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.errors import ProtocolError
from repro.policies.base import Block, ReplacementPolicy
from repro.workloads.base import NO_NEXT, Trace

#: Next-use value for blocks never referenced again.
NEVER = float("inf")


def _next_use_from_next_ref(next_ref: np.ndarray) -> List[float]:
    out = next_ref.astype(np.float64)
    out[next_ref == NO_NEXT] = NEVER
    return out.tolist()


def compute_next_use(trace: Sequence[Block]) -> List[float]:
    """For each position ``t``, the index of the next reference to
    ``trace[t]`` after ``t`` (or :data:`NEVER`), from
    :func:`repro.core.measures.next_reference_times`.
    """
    from repro.core.measures import next_reference_times

    return _next_use_from_next_ref(next_reference_times(trace))


class OPTPolicy(ReplacementPolicy):
    """Belady's MIN algorithm over a known future reference string.

    The clock advances once per :meth:`access` (or per manual
    :meth:`advance`). Operations must be issued in trace order: the block
    passed to :meth:`access` must equal ``trace[clock]``.
    """

    name = "opt"

    def __init__(
        self, capacity: int, trace: Union[Trace, Sequence[Block]]
    ) -> None:
        super().__init__(capacity)
        if isinstance(trace, Trace):
            # Draw the next-use table from the trace's shared preprocess
            # cache instead of an extra Python pass.
            self._trace: Sequence[Block] = trace.blocks.tolist()
            self._next_use_at = _next_use_from_next_ref(
                trace.preprocess().next_ref
            )
        elif isinstance(trace, np.ndarray):
            self._trace = trace.tolist()
            self._next_use_at = compute_next_use(trace)
        else:
            self._trace = list(trace)
            self._next_use_at = compute_next_use(self._trace)
        self._clock = 0
        # Dict-as-ordered-set: iteration follows insertion order, so
        # `resident()` is deterministic (a bare set would not be).
        self._resident: Dict[Block, None] = {}
        self._next_use: Dict[Block, float] = {}
        # Lazy max-heap of (-next_use, seq, block); stale entries are
        # skipped. The insertion sequence breaks next-use ties (blocks
        # never referenced again all sit at +inf) deterministically —
        # id(block) would tie-break by memory address and make the
        # eviction victim vary between otherwise identical runs.
        self._heap: List[tuple] = []
        self._heap_seq = 0

    @property
    def clock(self) -> int:
        """Number of references processed so far."""
        return self._clock

    def __contains__(self, block: Block) -> bool:
        return block in self._resident

    def __len__(self) -> int:
        return len(self._resident)

    def _check_in_sync(self, block: Block) -> None:
        if self._clock >= len(self._trace):
            raise ProtocolError("OPT accessed beyond the end of its trace")
        if self._trace[self._clock] != block:
            raise ProtocolError(
                f"OPT out of sync: expected {self._trace[self._clock]!r} at "
                f"position {self._clock}, got {block!r}"
            )

    def _set_next_use(self, block: Block, when: float) -> None:
        self._next_use[block] = when
        self._heap_seq += 1
        heapq.heappush(self._heap, (-when, self._heap_seq, block))

    # repro: bound O(log n) amortized -- lazy heap deletion: each
    # popped stale entry was pushed by one earlier clock advance
    def _current_farthest(self) -> Block:
        heap = self._heap
        resident = self._resident
        next_use_get = self._next_use.get
        while heap:
            neg_when, _, block = heap[0]
            if block in resident and next_use_get(block) == -neg_when:
                return block
            heapq.heappop(heap)
        raise ProtocolError("OPT heap empty with resident blocks")

    def touch(self, block: Block) -> None:
        """Advance the clock over a reference to a resident block."""
        self._require_resident(block)
        self._check_in_sync(block)
        self._set_next_use(block, self._next_use_at[self._clock])
        self._clock += 1

    def insert(self, block: Block) -> List[Block]:
        """Insert on a miss; the reference also advances the clock."""
        self._require_absent(block)
        self._check_in_sync(block)
        evicted: List[Block] = []
        if self.full:
            victim = self._current_farthest()
            self._resident.pop(victim, None)
            del self._next_use[victim]
            evicted.append(victim)
        self._resident[block] = None
        self._set_next_use(block, self._next_use_at[self._clock])
        self._clock += 1
        return evicted

    def remove(self, block: Block) -> None:
        self._require_resident(block)
        self._resident.pop(block, None)
        del self._next_use[block]

    def victim(self) -> Optional[Block]:
        if not self.full or not self._resident:
            return None
        return self._current_farthest()

    def resident(self) -> Iterator[Block]:
        return iter(list(self._resident))

    def next_use_of(self, block: Block) -> float:
        """Next reference position of a resident block (for tests)."""
        self._require_resident(block)
        return self._next_use[block]
