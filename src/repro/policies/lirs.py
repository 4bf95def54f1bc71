"""LIRS replacement — Jiang & Zhang, SIGMETRICS 2002.

LIRS (Low Inter-reference Recency Set) is the same authors' single-level
algorithm whose *last locality distance* idea the ULC paper generalises to
hierarchies (Section 5: "This single-level cache replacement motivates us
to investigate if the last locality distance, LLD, can be effectively
used to exploit hierarchical locality"). It is included both as an extra
baseline and because implementing it validates our reading of the LLD
machinery.

State:

- Stack ``S`` holds LIR blocks, resident HIR blocks and a bounded number
  of non-resident HIR blocks, ordered by recency.
- Queue ``Q`` holds the resident HIR blocks; its oldest entry is the
  eviction victim.
- Both are ``OrderedDict`` s whose first key is the bottom (oldest) end
  and last key the top (newest); a third dict maps every tracked block
  to its state.
- The cache is split into ``capacity - hir_size`` LIR slots and
  ``hir_size`` HIR slots (``hir_size`` ~1% of capacity, at least 1).
- Stack pruning keeps an LIR block at the bottom of ``S``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional

from repro.errors import ProtocolError
from repro.policies.base import Block, ReplacementPolicy
from repro.util.validation import check_positive

_LIR = "LIR"
_HIR_RESIDENT = "HIRr"
_HIR_NONRESIDENT = "HIRn"


class LIRSPolicy(ReplacementPolicy):
    """LIRS with configurable HIR fraction and ghost budget.

    Args:
        capacity: total resident blocks.
        hir_fraction: fraction of capacity assigned to resident HIR
            blocks (default 0.05; at least one slot either way).
        ghost_factor: bound on non-resident HIR entries kept in stack S,
            as a multiple of capacity (default 2.0).
    """

    name = "lirs"

    def __init__(
        self,
        capacity: int,
        hir_fraction: float = 0.05,
        ghost_factor: float = 2.0,
    ) -> None:
        super().__init__(capacity)
        if not 0 < hir_fraction < 1:
            raise ProtocolError(
                f"hir_fraction must be in (0, 1), got {hir_fraction}"
            )
        check_positive("ghost_factor", ghost_factor)
        self.hir_size = max(1, int(round(capacity * hir_fraction)))
        if self.hir_size >= capacity:
            self.hir_size = max(1, capacity - 1) if capacity > 1 else 1
        self.lir_size = max(1, capacity - self.hir_size)
        self.ghost_limit = max(1, int(capacity * ghost_factor))
        self._stack: "OrderedDict[Block, None]" = OrderedDict()
        self._queue: "OrderedDict[Block, None]" = OrderedDict()
        self._state: Dict[Block, str] = {}
        self._lir_count = 0
        self._ghost_count = 0

    # -- bookkeeping ----------------------------------------------------------

    def _resident_count(self) -> int:
        return self._lir_count + len(self._queue)

    def __contains__(self, block: Block) -> bool:
        state = self._state.get(block)
        return state is not None and state != _HIR_NONRESIDENT

    def __len__(self) -> int:
        return self._resident_count()

    # repro: bound O(1) amortized -- each popped HIR entry was pushed
    # onto the LIRS stack exactly once, so pruning is prepaid
    def _prune_stack(self) -> None:
        """Remove HIR entries from the stack bottom until a LIR block (or
        nothing) remains at the bottom."""
        stack = self._stack
        states = self._state
        while stack:
            bottom = next(iter(stack))
            state = states[bottom]
            if state == _LIR:
                return
            del stack[bottom]
            if state == _HIR_NONRESIDENT:
                self._ghost_count -= 1
                del states[bottom]
            # Resident HIR entries stay tracked via the queue.

    # repro: bound O(n) amortized -- the bottom-up walk stops at the
    # ghosts beyond the limit; each removed ghost was inserted once
    def _enforce_ghost_limit(self) -> None:
        excess = self._ghost_count - self.ghost_limit
        if excess <= 0:
            return
        states = self._state
        doomed: List[Block] = []
        for block in self._stack:
            if states[block] == _HIR_NONRESIDENT:
                doomed.append(block)
                if len(doomed) == excess:
                    break
        for block in doomed:
            del self._stack[block]
            del states[block]
        self._ghost_count -= len(doomed)
        self._prune_stack()

    def _evict_hir_victim(self) -> Block:
        """Evict the oldest resident HIR block.

        If every resident block is LIR (possible for degenerate
        capacities such as 1), the LIR stack bottom is demoted to HIR
        first so there is always a queue victim.
        """
        if not self._queue:
            self._demote_lir_bottom()
        if not self._queue:
            raise ProtocolError("LIRS eviction with empty HIR queue")
        block = self._queue.popitem(last=False)[0]
        if block in self._stack:
            self._state[block] = _HIR_NONRESIDENT
            self._ghost_count += 1
            self._enforce_ghost_limit()
        else:
            del self._state[block]
        return block

    def _demote_lir_bottom(self) -> None:
        """Turn the bottom-most LIR block of the stack into a resident HIR
        block.

        ``remove()`` can leave HIR entries below every LIR block (the
        stack is only pruned lazily), so tolerate a non-LIR bottom by
        pruning it away first.
        """
        self._prune_stack()
        if not self._stack:
            raise ProtocolError("LIRS demotion with no LIR block in stack")
        bottom = self._stack.popitem(last=False)[0]
        self._state[bottom] = _HIR_RESIDENT
        self._lir_count -= 1
        self._queue[bottom] = None
        self._prune_stack()

    def _promote(self, block: Block) -> None:
        """Make a stacked HIR block LIR at the stack top, demoting the
        LIR bottom if that overfills the LIR set."""
        self._stack.move_to_end(block)
        self._state[block] = _LIR
        self._lir_count += 1
        if self._lir_count > self.lir_size:
            self._demote_lir_bottom()

    # -- ReplacementPolicy interface -------------------------------------------

    def touch(self, block: Block) -> None:
        self._require_resident(block)
        stack = self._stack
        if self._state[block] == _LIR:
            was_bottom = next(iter(stack)) == block
            stack.move_to_end(block)
            if was_bottom:
                self._prune_stack()
            return
        # Resident HIR hit.
        if block in stack:
            # In stack: promote to LIR; demote the LIR bottom to HIR.
            del self._queue[block]
            self._promote(block)
        else:
            # Not in stack: stays HIR, moves to queue MRU, re-enters stack.
            self._queue.move_to_end(block)
            stack[block] = None

    def insert(self, block: Block) -> List[Block]:
        state = self._state.get(block)
        if state is not None and state != _HIR_NONRESIDENT:
            raise ProtocolError(f"block {block!r} is already resident in lirs")
        evicted: List[Block] = []
        if self._resident_count() >= self.capacity:
            evicted.append(self._evict_hir_victim())
            # The eviction may have pushed the ghost list over its limit
            # and trimmed the very ghost being promoted — re-check it.
            state = self._state.get(block)

        if state is not None:
            # Ghost hit: small inter-reference recency, promote to LIR.
            self._ghost_count -= 1
            self._promote(block)
            return evicted

        self._stack[block] = None
        if self._lir_count < self.lir_size:
            # Cold start: fill the LIR set first.
            self._state[block] = _LIR
            self._lir_count += 1
        else:
            self._state[block] = _HIR_RESIDENT
            self._queue[block] = None
        return evicted

    def remove(self, block: Block) -> None:
        self._require_resident(block)
        self._stack.pop(block, None)
        self._queue.pop(block, None)
        if self._state.pop(block) == _LIR:
            self._lir_count -= 1
            self._prune_stack()

    # repro: bound O(n) -- pure prediction: the degenerate all-LIR
    # case walks the stack snapshot without pruning it
    def victim(self) -> Optional[Block]:
        if not self.full:
            return None
        if self._queue:
            return next(iter(self._queue))
        # Degenerate: all resident blocks are LIR (can happen transiently
        # for capacity 1); the next eviction demotes the bottom-most LIR
        # block, so peek that.  Pure walk: skip unpruned HIR entries.
        for block in self._stack:
            if self._state[block] == _LIR:
                return block
        return None

    def resident(self) -> Iterator[Block]:
        for block, state in list(self._state.items()):
            if state != _HIR_NONRESIDENT:
                yield block

    def check_invariants(self) -> None:
        super().check_invariants()
        stack, queue = self._stack, self._queue
        lir = hir_resident = ghosts = 0
        for block, state in self._state.items():
            if state == _LIR:
                lir += 1
                if block not in stack:
                    raise ProtocolError(f"lirs: LIR block {block!r} not in stack")
                if block in queue:
                    raise ProtocolError(f"lirs: LIR block {block!r} in HIR queue")
            elif state == _HIR_RESIDENT:
                hir_resident += 1
                if block not in queue:
                    raise ProtocolError(f"lirs: resident HIR block {block!r} not in queue")
            elif state == _HIR_NONRESIDENT:
                ghosts += 1
                if block not in stack:
                    raise ProtocolError(f"lirs: ghost {block!r} not in stack")
                if block in queue:
                    raise ProtocolError(f"lirs: ghost {block!r} in HIR queue")
            else:
                raise ProtocolError(f"lirs: block {block!r} has state {state!r}")
        if lir != self._lir_count:
            raise ProtocolError(
                f"lirs: lir_count {self._lir_count} != {lir} LIR entries"
            )
        if ghosts != self._ghost_count:
            raise ProtocolError(
                f"lirs: ghost_count {self._ghost_count} != {ghosts} ghost entries"
            )
        if ghosts > self.ghost_limit:
            raise ProtocolError(
                f"lirs: {ghosts} ghosts exceed limit {self.ghost_limit}"
            )
        if hir_resident != len(queue):
            raise ProtocolError(
                f"lirs: queue length {len(queue)} != "
                f"{hir_resident} resident HIR entries"
            )
        untracked = [block for block in stack if block not in self._state]
        if untracked:
            raise ProtocolError(
                f"lirs: stack holds untracked blocks {untracked!r}"
            )

    # -- introspection ---------------------------------------------------------

    def state_of(self, block: Block) -> Optional[str]:
        """``"LIR"``, ``"HIRr"``, ``"HIRn"`` or ``None`` (untracked)."""
        return self._state.get(block)
