"""The single-client ULC protocol engine (paper Section 3.2.1).

The engine runs at the client (level 1) and directs the whole hierarchy:
for every reference it decides which level should cache the block
(``Retrieve(b, i, j)``) and which blocks must move down to make room
(``Demote(b, i, i+1)``), based on the block's position in the
uniLRUstack relative to the yardsticks.

Decision rule for a reference to block ``b`` with level status ``L_i``
and recency status ``R_j`` (the paper guarantees ``i >= j``):

- ``i == j``: the block stays where it is (``Retrieve(b, i, i)``); its
  stack entry moves to the top.
- ``i > j``: the block's last locality distance says it belongs at the
  higher level ``j`` (``Retrieve(b, i, j)``); one slot must be freed at
  level ``j``, which demotes yardstick blocks down the chain
  ``j -> j+1 -> ...`` until the slot vacated at level ``i`` absorbs the
  cascade (demotion out of the last level is an eviction).
- not tracked (first access or long-since pruned): ``L_out``; while some
  level still has spare capacity the block fills the highest such level,
  otherwise it is not cached at all and passes through the client's
  small tempLRU buffer.

The engine only manipulates metadata and emits :class:`AccessEvent`s;
costs are attached later by the simulator.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, List, Optional, Sequence

from repro.core.events import AccessEvent, Demotion
from repro.core.stack import StackNode, UniLRUStack
from repro.errors import ProtocolError
from repro.policies.base import Block
from repro.util.intlist import SENTINEL
from repro.util.validation import check_int, check_non_negative


class ULCClient:
    """Client-resident engine implementing single-client ULC.

    Args:
        capacities: block capacity of each level, client first.
        templru_capacity: size of the client's tempLRU buffer holding
            passing-through blocks (those not cached at level 1). The
            paper only calls it "small"; 16 blocks is our default.
        max_metadata: optional bound on uniLRUstack entries (Section 5
            metadata trimming).
    """

    def __init__(
        self,
        capacities: Sequence[int],
        templru_capacity: int = 16,
        max_metadata: Optional[int] = None,
    ) -> None:
        check_int("templru_capacity", templru_capacity)
        check_non_negative("templru_capacity", templru_capacity)
        self.stack = UniLRUStack(capacities, max_size=max_metadata)
        self.capacities = self.stack.capacities
        self.num_levels = self.stack.num_levels
        # The tempLRU: pass-through blocks in recency order, least
        # recent first. A level-1 block is never in it (see access).
        self.templru_capacity = templru_capacity
        self._temp: OrderedDict[Block, None] = OrderedDict()

    # -- queries -------------------------------------------------------------

    def cached_level(self, block: Block) -> Optional[int]:
        """Level currently holding ``block`` (``None`` if uncached)."""
        node = self.stack.lookup(block)
        if node is None or node.level == self.stack.out_level:
            return None
        return node.level

    def resident_blocks(self, level: int) -> List[Block]:
        """Blocks cached at ``level`` (most recently ranked first)."""
        return self.stack.level_blocks(level)

    # -- the protocol ----------------------------------------------------------

    def access(self, block: Block, client: int = 0) -> AccessEvent:  # repro: hot
        """Process one reference and return the resulting event.

        This is the hottest function in the library: the whole
        per-reference protocol is fused into one frame with locals bound
        once, and events are built positionally (field order is part of
        the :class:`AccessEvent` contract). The logic is exactly the
        decision rule from the module docstring.

        A tracked level-1 block takes the first branch. It is never in
        the tempLRU (a block placed at level 1 leaves the tempLRU, and
        only a reference places a block at level 1), and a level-1 node
        is at or above yardstick ``Y_1`` (the tail of ``LRU_1``), so its
        recency region is 1: the ``i == j`` case with no temp activity.
        """
        stack = self.stack
        node = stack._nodes.get(block)
        if node is not None and node.level == 1:
            stack.touch(node, 1)
            return AccessEvent(block, client, 1, False, 1)
        temp = self._temp
        in_temp = block in temp

        if node is None:
            event = self._access_untracked(block, client, in_temp)
        else:
            out = stack.out_level
            level_status = node.level  # i
            region = stack.recency_region(node)  # j

            # The stack construction guarantees i >= j for cached blocks
            # (see UniLRUStack docs); for L_out blocks i is out_level.
            if region == out:
                # Re-reference of an uncached block whose recency fell
                # below every yardstick: behave like a fresh L_out block.
                fill_level = stack.first_unfilled_level()
                stack.touch(
                    node, fill_level if fill_level is not None else out
                )
                event = AccessEvent(
                    block, client, 1 if in_temp else None, in_temp, fill_level
                )
            elif region == level_status:
                # i == j at a lower level: the block stays there; no
                # cascade runs (its own slot absorbs its re-insertion).
                stack.touch(node, region)
                event = AccessEvent(
                    block, client, 1 if in_temp else level_status, in_temp,
                    region,
                )
            else:
                # i > j: move the block up to level j; free one slot
                # there by demoting yardstick blocks down the chain until
                # the slot vacated at level i absorbs the cascade.
                hit_level = 1 if in_temp else (
                    None if level_status == out else level_status
                )
                demotions: List[Demotion] = []
                evicted: List[Block] = []
                stack.touch(node, region)
                level = region
                num_levels = self.num_levels
                capacities = self.capacities
                levels = stack._levels
                while (
                    level <= num_levels
                    and levels[level - 1].size > capacities[level - 1]
                ):
                    victim = stack.demote_tail(level)
                    demotions.append(Demotion(victim.block, level, level + 1))
                    if victim.level == out:
                        evicted.append(victim.block)
                    level += 1
                event = AccessEvent(
                    block, client, hit_level, in_temp, region,
                    tuple(demotions), tuple(evicted),
                )

        # Maintain the tempLRU holding blocks that pass through the
        # client without being cached at level 1.
        if event.placed_level == 1:
            if in_temp:
                del temp[block]
        elif in_temp:
            temp.move_to_end(block)
        elif self.templru_capacity:
            temp[block] = None
            if len(temp) > self.templru_capacity:
                temp.popitem(last=False)
        return event

    def access_hit_run(  # repro: hot
        self,
        blocks: Sequence[Block],
        record: Optional[Callable[[AccessEvent], object]] = None,
        hits: Optional[List[int]] = None,
    ) -> int:
        """Serve the pure level-1 hits of a run of references.

        A reference to a block tracked at level 1 is a *pure* level-1
        hit: :meth:`access` takes its first branch — exactly
        ``stack.touch(node, 1)``, an event with ``hit_level=1``/
        ``placed_level=1`` and no demotions, evictions, temp activity or
        messages. This loop performs just that touch for such a
        reference, without building the event, and returns how many
        it served. The touch is spliced inline on the stack's slab
        arrays (the kernel contract of :mod:`repro.util.intlist`): the
        node moves to the front of the global list and of ``LRU_1`` and
        takes the next sequence number. A node found in the stack's
        index has a live slot, so ``touch``'s lost-slot guard cannot
        fire here; and since the stack bottom is a cached block before
        every reference, only a hit on the bottom block can uncover
        ``L_out`` entries to prune.

        With no ``record`` the loop stops before the first reference
        that needs the full protocol (the batched drive's probe). With
        ``record`` it runs every reference, sending each other one
        through :meth:`access` and its event to ``record``. The count is
        also added to ``hits[0]`` when the loop ends, or when a
        reference raises, so a caller can fold exactly the hits served
        before it.
        """
        stack = self.stack
        nodes = stack._nodes
        # A linked slot always holds its node.
        node_at: List[StackNode] = stack._node_at  # type: ignore[assignment]
        gp, gn = stack._global.prev, stack._global.next
        lp, ln = stack._levels[0].prev, stack._levels[0].next
        out = stack.out_level
        access = self.access
        count = 0
        if hasattr(blocks, "tolist"):
            # Zero-copy lazy view, not .tolist(): the caller may probe a
            # large window that stops after a few references, and this
            # kernel must cost O(consumed), not O(window).
            blocks = memoryview(blocks)
        try:
            for block in blocks:
                node = nodes.get(block)
                if node is not None and node.level == 1:
                    slot = node.slot
                    n = gn[slot]
                    if gn[SENTINEL] != slot:
                        p = gp[slot]
                        gn[p] = n
                        gp[n] = p
                        first = gn[SENTINEL]
                        gp[slot] = SENTINEL
                        gn[slot] = first
                        gp[first] = slot
                        gn[SENTINEL] = slot
                    if ln[SENTINEL] != slot:
                        p, m = lp[slot], ln[slot]
                        ln[p] = m
                        lp[m] = p
                        first = ln[SENTINEL]
                        lp[slot] = SENTINEL
                        ln[slot] = first
                        lp[first] = slot
                        ln[SENTINEL] = slot
                    stack._seq += 1
                    node.seq = stack._seq
                    if n == SENTINEL and node_at[gp[SENTINEL]].level == out:
                        stack.prune()
                    count += 1
                elif record is None:
                    break
                else:
                    record(access(block))
        finally:
            if hits is not None:
                hits[0] += count
        return count

    def _access_untracked(
        self, block: Block, client: int, in_temp: bool
    ) -> AccessEvent:
        """First access (or access after pruning): L_out / R_out."""
        fill_level = self.stack.first_unfilled_level()
        if fill_level is None:
            # All caches full: the block is not cached anywhere.
            self.stack.insert_new(block, self.stack.out_level)
        else:
            self.stack.insert_new(block, fill_level)
        return AccessEvent(
            block, client, 1 if in_temp else None, in_temp, fill_level
        )

    # -- diagnostics ----------------------------------------------------------

    def check_invariants(self) -> None:
        """Validate the stack and tempLRU invariants (tests).

        Besides the stack's own invariants (no level over capacity among
        them): the tempLRU holds at most ``templru_capacity`` blocks,
        and no level-1 block is in it (the first branch of
        :meth:`access` rests on that).
        """
        self.stack.check_invariants()
        check_templru(self.stack, self._temp, self.templru_capacity)


def check_templru(
    stack: UniLRUStack, temp: OrderedDict[Block, None], capacity: int
) -> None:
    """Raise :class:`ProtocolError` when the tempLRU holds more than
    ``capacity`` blocks or holds a block cached at level 1."""
    if len(temp) > capacity:
        raise ProtocolError(
            f"tempLRU holds {len(temp)} blocks, capacity {capacity}"
        )
    for block in temp:
        node = stack.lookup(block)
        if node is not None and node.level == 1:
            raise ProtocolError(
                f"level-1 block {block!r} is in the tempLRU"
            )
