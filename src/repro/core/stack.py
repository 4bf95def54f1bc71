"""The uniLRUstack — ULC's central data structure (paper Section 3.2).

The stack tracks metadata for recently accessed blocks: a *level status*
(which cache level holds the block, or ``L_out``) and enough ordering
information to derive the *recency status* (which yardstick region the
block currently sits in).

Representation
--------------

The paper describes one global LRU stack with per-level yardstick markers
``Y_1 .. Y_n`` plus implicit per-level stacks ``LRU_i``. We exploit two
structural facts to keep every operation O(1):

1. Nodes only ever *enter at the top* of the global stack (on access);
   they never move downwards relative to each other. Hence global stack
   order is exactly descending order of a per-node sequence number
   stamped at the last access, and comparing two nodes' recencies is an
   O(1) integer comparison.

2. The yardstick ``Y_i`` is *defined* as the level-``i`` block with
   maximal recency — which is simply the tail of the per-level list
   ``LRU_i`` when that list is kept in descending sequence order.
   Keeping explicit ``LRU_i`` lists therefore subsumes both
   *YardStickAdjustment* (the tail pointer moves by itself when the tail
   node leaves) and gives O(1) victim lookup.

The *recency status* ``R_j`` of a node is then a pure function of its
sequence number and the yardstick sequence numbers: the smallest ``j``
with ``seq(node) >= seq(Y_j)``. Because a level-``i`` node is always at
or above its own yardstick, ``R_j <= L_i`` holds by construction — the
invariant the paper states as "the case i < j is not possible".

*DemotionSearching* appears as :meth:`UniLRUStack.demote_tail`: a demoted
node is inserted into the next level's list at its sequence-sorted
position, scanning from the tail (the paper's "searches in the direction
towards the stack bottom ... for next block with a higher level status").

Blocks below ``Y_n`` are pruned from the global stack and forgotten
(level ``L_out``), keeping metadata proportional to the aggregate cache
size plus the transient ``L_out`` region above ``Y_n``; an optional hard
bound (:attr:`UniLRUStack.max_size`) implements the metadata trimming
discussed in the paper's Section 5.

Storage layout (the slab kernel)
--------------------------------

Every tracked block owns one *slot* in a shared
:class:`~repro.util.intlist.IntSlab`. The global stack and each
``LRU_i`` are :class:`~repro.util.intlist.IntLinkedList` s over that
slot space, so one block is linked into two lists through the same
integer and a reference costs a handful of flat-array writes with zero
allocation (the previous pointer-object design allocated a fresh list
node per touch). The :class:`StackNode` handle survives as the public
face of an entry — it carries ``block``/``level``/``seq`` plus its slot
— but it no longer owns any link structure. The hot mutators
(``insert_new``, ``touch``, ``demote_tail`` with its DemotionSearching
insert, and ``prune``) splice the ``prev``/``next`` arrays inline, per
the kernel contract documented in :mod:`repro.util.intlist`, and so do
the level-1 hit kernels of :mod:`repro.core.protocol` and
:mod:`repro.core.multi`, which write out ``touch(node, 1)``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigurationError, ProtocolError
from repro.policies.base import Block
from repro.util.intlist import SENTINEL, UNLINKED, IntLinkedList, IntSlab
from repro.util.validation import check_int, check_positive


class StackNode:
    """Metadata entry for one block.

    ``level`` is 1-based; ``stack.out_level`` (``num_levels + 1``) means
    the block is not cached at any level (``L_out``). ``slot`` is the
    entry's slab slot (``-1`` once the entry has been forgotten).
    """

    __slots__ = ("block", "level", "seq", "slot")

    def __init__(self, block: Block, level: int, seq: int, slot: int) -> None:
        self.block = block
        self.level = level
        self.seq = seq
        self.slot = slot

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StackNode(block={self.block!r}, L{self.level}, seq={self.seq})"


class UniLRUStack:
    """The unified LRU stack with per-level yardsticks.

    Args:
        capacities: cache size (in blocks) of each level, top (client)
            first.
        max_size: optional hard bound on tracked metadata entries; when
            exceeded, the coldest entries are trimmed (Section 5's
            metadata trimming). ``None`` means unbounded (default).
    """

    def __init__(
        self, capacities: Sequence[int], max_size: Optional[int] = None
    ) -> None:
        capacities = list(capacities)
        if not capacities:
            raise ConfigurationError("at least one cache level is required")
        for index, capacity in enumerate(capacities):
            check_int(f"capacities[{index}]", capacity)
            check_positive(f"capacities[{index}]", capacity)
        if max_size is not None:
            check_int("max_size", max_size)
            if max_size < sum(capacities):
                raise ConfigurationError(
                    "max_size must be at least the aggregate cache size "
                    f"({sum(capacities)}), got {max_size}"
                )
        self.capacities = capacities
        self.num_levels = len(capacities)
        self.out_level = self.num_levels + 1
        self.max_size = max_size
        self._seq = 0
        self._slab = IntSlab()
        self._global = IntLinkedList(self._slab)
        self._levels: List[IntLinkedList] = [
            IntLinkedList(self._slab) for _ in range(self.num_levels)
        ]
        self._nodes: Dict[Block, StackNode] = {}
        # slot -> StackNode (grown with the slab; None for free slots).
        self._node_at: List[Optional[StackNode]] = [None]

    # -- basic queries -----------------------------------------------------

    def __len__(self) -> int:
        """Number of tracked metadata entries."""
        return len(self._nodes)

    def __contains__(self, block: Block) -> bool:
        return block in self._nodes

    def lookup(self, block: Block) -> Optional[StackNode]:
        """The node for ``block``, or ``None`` if not tracked."""
        return self._nodes.get(block)

    def level_size(self, level: int) -> int:
        """Number of blocks currently assigned to ``level`` (1-based)."""
        return self._levels[level - 1].size

    def level_blocks(self, level: int) -> List[Block]:
        """Blocks of one level, most recent first (O(size); for tests)."""
        node_at = self._node_at
        return [
            node_at[slot].block  # type: ignore[union-attr]
            for slot in self._levels[level - 1]
        ]

    def colder_neighbour(self, node: StackNode) -> Optional[StackNode]:
        """The next-colder block in ``node``'s level list, or ``None``.

        Used by the multi-client protocol to tell the server where a
        demoted block ranks among the client's other server blocks.
        """
        lst = self._level_list_of(node)
        neighbour = lst.next[node.slot]
        return None if neighbour == SENTINEL else self._node_at[neighbour]

    def warmer_neighbour(self, node: StackNode) -> Optional[StackNode]:
        """The next-warmer block in ``node``'s level list, or ``None``."""
        lst = self._level_list_of(node)
        neighbour = lst.prev[node.slot]
        return None if neighbour == SENTINEL else self._node_at[neighbour]

    def _level_list_of(self, node: StackNode) -> IntLinkedList:
        if node.level == self.out_level or node.slot < 0:
            raise ProtocolError(f"block {node.block!r} is not in a level list")
        lst = self._levels[node.level - 1]
        if lst.prev[node.slot] == UNLINKED:
            raise ProtocolError(f"block {node.block!r} is not in a level list")
        return lst

    def yardstick(self, level: int) -> Optional[StackNode]:
        """``Y_level``: the level's maximal-recency block (its victim)."""
        lst = self._levels[level - 1]
        if lst.size == 0:
            return None
        return self._node_at[lst.prev[SENTINEL]]

    def first_unfilled_level(self) -> Optional[int]:
        """Highest level with spare capacity, or ``None`` when all full.

        Implements the paper's initial placement rule: "if level L_i is
        not full and the levels that are higher than it are full, any
        requested L_out blocks get level status L_i".
        """
        capacities = self.capacities
        for index, lst in enumerate(self._levels):
            if lst.size < capacities[index]:
                return index + 1
        return None

    def recency_region(self, node: StackNode) -> int:
        """The node's recency status ``R_j`` (``out_level`` for R_out).

        ``R_j`` means the node's recency lies between yardsticks
        ``Y_{j-1}`` and ``Y_j``; computed as the smallest ``j`` whose
        yardstick is at or below the node.
        """
        seq = node.seq
        node_at = self._node_at
        level = 1
        for lst in self._levels:
            tail = lst.prev[SENTINEL]
            if tail != SENTINEL and seq >= node_at[tail].seq:  # type: ignore[union-attr]
                return level
            level += 1
        return self.out_level

    # -- mutations -----------------------------------------------------------

    def _alloc(self, node: StackNode) -> int:
        slot = self._slab.alloc()
        node_at = self._node_at
        if slot == len(node_at):
            node_at.append(node)
        else:
            node_at[slot] = node
        node.slot = slot
        return slot

    def insert_new(self, block: Block, level: int) -> StackNode:
        """Track a block seen for the first time (or after pruning).

        The node enters at the stack top with the given level status
        (``out_level`` allowed). Miss-heavy workloads hit this as often
        as :meth:`touch`, so the two list pushes are inlined splices.
        """
        nodes = self._nodes
        if block in nodes:
            raise ProtocolError(f"block {block!r} is already tracked")
        self._seq += 1
        node = StackNode(block, level, self._seq, -1)
        slot = self._alloc(node)
        glob = self._global
        gp, gn = glob.prev, glob.next
        first = gn[SENTINEL]
        gp[slot] = SENTINEL
        gn[slot] = first
        gp[first] = slot
        gn[SENTINEL] = slot
        glob.size += 1
        if level != self.out_level:
            lst = self._levels[level - 1]
            lp, ln = lst.prev, lst.next
            first = ln[SENTINEL]
            lp[slot] = SENTINEL
            ln[slot] = first
            lp[first] = slot
            ln[SENTINEL] = slot
            lst.size += 1
        nodes[block] = node
        if self.max_size is not None:
            self._enforce_max_size()
        return node

    def touch(self, node: StackNode, new_level: int) -> None:
        """Move ``node`` to the stack top with level status ``new_level``.

        This is the metadata effect of a reference: recency becomes the
        smallest (status ``R_1``) and the level status is re-ranked to
        ``new_level`` (the block's recency region at access time, per the
        LLD rule). The splices below are the inlined kernel form of
        ``move_to_front`` + ``remove`` + ``push_front`` — the hottest
        mutator on every path but the level-1 hit kernels of
        :mod:`repro.core.protocol` and :mod:`repro.core.multi`, which
        splice that case themselves. A same-level re-reference (the
        ``i == j`` case, most references) is one ``move_to_front`` of
        its level list instead.

        The stack bottom is a cached block before every reference
        (:meth:`check_invariants` asserts it), so only moving the old
        bottom up can uncover ``L_out`` entries there to prune.
        """
        slot = node.slot
        if slot < 0:
            raise ProtocolError(
                f"stack entry for {node.block!r} lost its global-list node"
            )
        out = self.out_level
        glob = self._global
        gp, gn = glob.prev, glob.next
        n = gn[slot]
        if gn[SENTINEL] != slot:  # move to the global front
            p = gp[slot]
            gn[p] = n
            gp[n] = p
            first = gn[SENTINEL]
            gp[slot] = SENTINEL
            gn[slot] = first
            gp[first] = slot
            gn[SENTINEL] = slot
        self._seq += 1
        node.seq = self._seq
        old_level = node.level
        if old_level == new_level:
            if new_level != out:  # move to the level list's front
                lst = self._levels[new_level - 1]
                lp, ln = lst.prev, lst.next
                if ln[SENTINEL] != slot:
                    p, m = lp[slot], ln[slot]
                    ln[p] = m
                    lp[m] = p
                    first = ln[SENTINEL]
                    lp[slot] = SENTINEL
                    ln[slot] = first
                    lp[first] = slot
                    ln[SENTINEL] = slot
        else:
            if old_level != out:  # unlink from the old level list
                lst = self._levels[old_level - 1]
                lp, ln = lst.prev, lst.next
                p, m = lp[slot], ln[slot]
                ln[p] = m
                lp[m] = p
                lp[slot] = UNLINKED
                ln[slot] = UNLINKED
                lst.size -= 1
            node.level = new_level
            if new_level != out:  # push onto the new level's front
                lst = self._levels[new_level - 1]
                lp, ln = lst.prev, lst.next
                first = ln[SENTINEL]
                lp[slot] = SENTINEL
                ln[slot] = first
                lp[first] = slot
                ln[SENTINEL] = slot
                lst.size += 1
        if n == SENTINEL:
            bottom: StackNode = self._node_at[gp[SENTINEL]]  # type: ignore[assignment]
            if bottom.level == out:
                self.prune()

    def _level_unlink(self, node: StackNode) -> None:
        if node.level != self.out_level and node.slot >= 0:
            lst = self._levels[node.level - 1]
            if lst.prev[node.slot] != UNLINKED:
                lst.remove(node.slot)

    def demote_tail(self, level: int) -> StackNode:
        """Demote ``Y_level``'s block one level down; returns its node.

        Demoting from the last level marks the block ``L_out`` (it falls
        out of every cache). The node keeps its stack position — a
        demotion changes where a block is *cached*, not its recency. For
        intermediate levels the node is placed at its sequence-sorted
        position in the next level's list (*DemotionSearching*). The
        yardstick is the level list's tail, unlinked by an inline
        splice.
        """
        lst = self._levels[level - 1]
        lp, ln = lst.prev, lst.next
        slot = lp[SENTINEL]
        if slot == SENTINEL:
            raise ProtocolError(f"demote_tail on empty level {level}")
        victim: StackNode = self._node_at[slot]  # type: ignore[assignment]
        p = lp[slot]
        ln[p] = SENTINEL
        lp[SENTINEL] = p
        lp[slot] = UNLINKED
        ln[slot] = UNLINKED
        lst.size -= 1
        if level >= self.num_levels:
            victim.level = self.out_level
            self.prune()
            return victim
        victim.level = level + 1
        self._insert_sorted(victim, level + 1)
        return victim

    # repro: bound O(n) -- DemotionSearching: the walk from the stack
    # top stops at the level successor, the paper's Section 3.2 search
    # that makes demoted blocks findable without per-level stacks
    def _insert_sorted(self, node: StackNode, level: int) -> None:
        """Insert into ``LRU_level`` keeping descending sequence order.

        This is the paper's *DemotionSearching*, implemented literally:
        the node already sits in the global stack at its recency
        position, and a level list is the subsequence of the global
        stack restricted to that level (both strictly descend by seq).
        So the node's level-list successor is simply the first
        level-``level`` node found walking the *global* list tailwards
        from the node itself — the paper's "searches in the direction
        towards the stack bottom ... for the next block with a higher
        level status". The walk is O(gap to that neighbour), typically a
        handful of steps, where a scan of the level list itself from
        either end is O(level size). With no successor the node goes
        to the list's tail, which is the insert before the sentinel;
        the splice is inline, keeping ``insert_before``'s checks.
        """
        slot = node.slot
        target = self._levels[level - 1]
        tp, tn = target.prev, target.next
        if tp[slot] != UNLINKED:
            raise ProtocolError(f"slot {slot} is already linked")
        node_at = self._node_at
        gnext = self._global.next
        anchor = gnext[slot]
        while anchor != SENTINEL:
            if node_at[anchor].level == level:  # type: ignore[union-attr]
                if tp[anchor] == UNLINKED:
                    raise ProtocolError(
                        f"slot {anchor} is not linked in this list"
                    )
                break
            anchor = gnext[anchor]
        p = tp[anchor]
        tp[slot] = p
        tn[slot] = anchor
        tn[p] = slot
        tp[anchor] = slot
        target.size += 1

    def relocate(self, node: StackNode, new_level: int) -> None:
        """Move a node to another level *without* changing its recency.

        This is the metadata effect of an externally decided demotion
        (e.g. a shared tier pushing a block one tier down in the
        multi-client n-level protocol): the block's cached location
        changes, its stack position does not. The node enters the new
        level's list at its recency-sorted slot.
        """
        if self._nodes.get(node.block) is not node:
            raise ProtocolError(f"block {node.block!r} is not tracked")
        if not 1 <= new_level <= self.num_levels:
            raise ProtocolError(f"invalid level {new_level}")
        self._level_unlink(node)
        node.level = new_level
        self._insert_sorted(node, new_level)

    def evict(self, node: StackNode) -> None:
        """Mark a cached node ``L_out`` in place (e.g. a server eviction
        notice in the multi-client protocol)."""
        if self._nodes.get(node.block) is not node:
            raise ProtocolError(f"block {node.block!r} is not tracked")
        if node.level == self.out_level:
            raise ProtocolError(f"block {node.block!r} is already L_out")
        self._level_unlink(node)
        node.level = self.out_level
        self.prune()

    def forget(self, node: StackNode) -> None:
        """Drop a node from the stack entirely.

        Forgetting the coldest cached entry can expose ``L_out`` entries
        at the stack bottom; they are pruned, as after every other
        mutation that uncovers them.
        """
        self._drop(node)
        self.prune()

    def _drop(self, node: StackNode) -> None:
        self._level_unlink(node)
        if node.slot >= 0:
            if self._global.prev[node.slot] != UNLINKED:
                self._global.remove(node.slot)
            self._node_at[node.slot] = None
            self._slab.free(node.slot)
            node.slot = -1
        del self._nodes[node.block]

    # repro: bound O(1) amortized -- each forgotten L_out entry was
    # inserted into the stack exactly once, so trimming is prepaid
    def prune(self) -> int:
        """Remove ``L_out`` entries from the stack bottom.

        After pruning, the bottom of the stack is a cached block — in
        steady state exactly ``Y_n``, matching the paper's "the last
        yardstick always sits in the bottom of uniLRUstack". Returns the
        number of entries removed. An ``L_out`` entry is in no level
        list, so each is one inline unlink of the global tail before
        its slot goes back to the slab.
        """
        removed = 0
        glob = self._global
        gp, gn = glob.prev, glob.next
        node_at = self._node_at
        nodes = self._nodes
        free = self._slab.free
        out = self.out_level
        tail = gp[SENTINEL]
        while tail != SENTINEL:
            node: StackNode = node_at[tail]  # type: ignore[assignment]
            if node.level != out:
                break
            p = gp[tail]
            gn[p] = SENTINEL
            gp[SENTINEL] = p
            gp[tail] = UNLINKED
            gn[tail] = UNLINKED
            glob.size -= 1
            node_at[tail] = None
            free(tail)
            node.slot = -1
            del nodes[node.block]
            removed += 1
            tail = p
        return removed

    # repro: bound O(n) amortized -- the Section-5 metadata trim walks
    # from the coldest end only when the stack exceeds max_size; each
    # trimmed entry was inserted once
    def _enforce_max_size(self) -> None:
        """Trim the coldest ``L_out`` entries beyond ``max_size``.

        This is the paper's Section-5 metadata trimming: "relatively cold
        blocks (with low level statuses) can be trimmed from the stack
        without compromising the ULC locality distinction ability".
        Cached entries are never trimmed — their metadata is the cache
        directory itself — so the effective floor is the aggregate cache
        size (enforced at construction).
        """
        if self.max_size is None or len(self._nodes) <= self.max_size:
            return
        node_at = self._node_at
        trim_order = self._global.iter_reverse()
        for slot in trim_order:
            if len(self._nodes) <= self.max_size:
                break
            node = node_at[slot]
            if node is not None and node.level == self.out_level:
                self._drop(node)

    # -- diagnostics ----------------------------------------------------------

    def stack_blocks(self) -> List[Block]:
        """Global stack contents, top first (O(n); tests/debugging)."""
        node_at = self._node_at
        return [
            node_at[slot].block  # type: ignore[union-attr]
            for slot in self._global
        ]

    def check_invariants(self, enforce_capacity: bool = True) -> None:
        """Validate all structural invariants; raises ProtocolError.

        Used heavily by the property tests. Checks:

        - the slab and every link array are internally consistent
          (symmetric links, one chain, sizes match),
        - per-level lists are in strictly descending sequence order,
        - level sizes never exceed capacities (skippable for elastic
          levels, e.g. a multi-client view of a shared server),
        - global stack is in strictly descending sequence order,
        - every cached node is in exactly one level list,
        - recency status never exceeds level status (paper: "i < j is
          not possible"),
        - the stack bottom is a cached block (post-prune).
        """
        self._slab.check_invariants()
        self._global.check_invariants()
        for lst in self._levels:
            lst.check_invariants()

        node_at = self._node_at
        seen = 0
        previous_seq = None
        for slot in self._global:
            node = node_at[slot]
            if node is None or node.slot != slot:
                raise ProtocolError(
                    f"slot {slot} in the global stack has no live node"
                )
            if previous_seq is not None and node.seq >= previous_seq:
                raise ProtocolError("global stack out of sequence order")
            previous_seq = node.seq
            seen += 1
        if seen != len(self._nodes):
            raise ProtocolError("global stack and node index disagree")

        for level in range(1, self.num_levels + 1):
            if (
                enforce_capacity
                and self.level_size(level) > self.capacities[level - 1]
            ):
                raise ProtocolError(f"level {level} exceeds its capacity")
            previous_seq = None
            for slot in self._levels[level - 1]:
                node = node_at[slot]
                if node is None or node.level != level:
                    got = None if node is None else node.level
                    raise ProtocolError(
                        f"slot {slot} in level list {level} has "
                        f"level status {got}"
                    )
                if previous_seq is not None and node.seq >= previous_seq:
                    raise ProtocolError(f"level {level} list out of order")
                previous_seq = node.seq

        for node in self._nodes.values():
            if node.level != self.out_level:
                lst = self._levels[node.level - 1]
                if node.slot < 0 or lst.prev[node.slot] == UNLINKED:
                    raise ProtocolError(
                        f"cached node {node.block!r} missing from its "
                        f"level list"
                    )
            region = self.recency_region(node)
            if node.level != self.out_level and region > node.level:
                raise ProtocolError(
                    f"node {node.block!r}: recency status R_{region} exceeds "
                    f"level status L_{node.level}"
                )

        if self._global.size:
            bottom = node_at[self._global.prev[SENTINEL]]
            if bottom is not None and bottom.level == self.out_level:
                raise ProtocolError("stack bottom is an un-pruned L_out entry")
