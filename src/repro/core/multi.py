"""The multi-client ULC protocol (paper Section 3.2.2, Figure 5).

Multiple clients share one server cache. Each client runs its own
two-level ULC instance (its cache is level 1, the server is level 2);
the server keeps a single global LRU stack ``gLRU`` whose order is set by
the *caching requests* of all clients, which approximates dynamic
partitioning of the server buffers by working-set size (the paper cites
Cao/Felten/Li for global LRU approximating dynamic partition).

Key mechanisms implemented here:

- **Owner tags**: every gLRU entry records the client that most recently
  directed it to be cached; a block stays cached as long as the most
  recent direction wanted it cached ("a block is cached on the highest
  level among all the clients' direction").
- **Eviction notices**: when gLRU replaces a block, its owner's view of
  level 2 must shrink by one (a yardstick adjustment at that client).
  Notices are *delayed* — queued and delivered along the next block the
  server sends to that owner — so they cost no extra messages; an
  ``immediate`` mode is provided for the ablation study.
- **Stale views**: a client may believe a *shared* block is still at the
  server after another owner let it be evicted (only the owner is
  notified). Such a retrieve simply misses at the server and falls
  through to disk; the client's placement direction re-caches it.

The same engine runs a *chain* of shared tiers (clients -> file-server
cache -> disk-array cache): levels 2..n are shared, each an
owner-tagged gLRU with its own notice queues. With one tier every rule
below is the paper's protocol:

- Placement: recency region ``j`` directs caching at level ``j``; the
  fill rule tries levels top down, a shared tier counting as unfilled
  while the client's own view of it is below the tier's full size.
- Demotion: promoting a block into the client cache demotes ``Y_1``'s
  block into tier 2 at its recency rank among the owner's blocks. An
  overflowing tier demotes its gLRU bottom into the next tier (a
  transfer down the chain, cascading); the bottom tier drops it.
- Notices: every tier eviction queues a notice for the block's owner,
  delivered before the owner's next reference, tier by tier. A live
  notice moves the owner's view one level down (the tier demoted the
  block into the next tier) or out of the hierarchy; which of the two
  is read from the tiers at delivery. With one tier, a notice caused by
  the owner's own request instead rides back on that request's
  response: it is applied at once, is never lost and costs no message
  even in ``immediate`` mode — which keeps a lone client's view of the
  server identical to the gLRU at every step.
- Stale views: a retrieve searches from the believed level down the
  tiers, so a block demoted under another owner is found lower (or
  misses to disk); the client's own direction repairs the state.
"""

from __future__ import annotations

from collections import ChainMap, OrderedDict
from dataclasses import dataclass
from typing import Container, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.events import AccessEvent, Demotion
from repro.core.protocol import check_templru
from repro.core.stack import UniLRUStack
from repro.errors import ConfigurationError, ProtocolError
from repro.policies.base import Block
from repro.util.intlist import SENTINEL, IntLinkedList
from repro.util.rng import make_rng
from repro.util.validation import (
    check_fraction,
    check_in,
    check_int,
    check_non_negative,
    check_positive,
)

NOTIFY_PIGGYBACK = "piggyback"
NOTIFY_IMMEDIATE = "immediate"


@dataclass
class _Eviction:
    """A server eviction pending delivery to its owner."""

    block: Block
    owner: int


class ULCServer:
    """Shared server cache driven by client directions (gLRU + owners).

    The gLRU is a slab list (:mod:`repro.util.intlist`): each cached
    block owns one slot, with the block identity and owner tag held in
    parallel arrays indexed by that slot — no per-entry objects.
    """

    def __init__(self, capacity: int) -> None:
        check_int("capacity", capacity)
        check_positive("capacity", capacity)
        self.capacity = capacity
        self._glru = IntLinkedList()
        self._slots: Dict[Block, int] = {}
        self._block_at: List[Optional[Block]] = [None]
        self._owner_at: List[int] = [-1]
        self._pending: Dict[int, List[Block]] = {}

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, block: Block) -> bool:
        return block in self._slots

    @property
    def full(self) -> bool:
        return len(self._slots) >= self.capacity

    def _alloc(self, block: Block, owner: int) -> int:
        slot = self._glru.slab.alloc()
        if slot == len(self._block_at):
            self._block_at.append(block)
            self._owner_at.append(owner)
        else:
            self._block_at[slot] = block
            self._owner_at[slot] = owner
        self._slots[block] = slot
        return slot

    def _release_slot(self, slot: int) -> None:
        block = self._block_at[slot]
        self._block_at[slot] = None
        self._glru.slab.free(slot)
        del self._slots[block]

    def owner_of(self, block: Block) -> Optional[int]:
        """Owner tag of a cached block (``None`` if absent)."""
        slot = self._slots.get(block)
        return self._owner_at[slot] if slot is not None else None

    def peek(self, block: Block) -> bool:
        """Serve a block without a caching direction (level-1 tag).

        gLRU order is driven by *caching* requests only, so serving a
        pass-through retrieve does not update recency or ownership.
        """
        return block in self._slots

    def want_cached(self, block: Block, owner: int) -> Optional[_Eviction]:
        """Direct the server to cache ``block`` on behalf of ``owner``.

        Moves/inserts the block at the gLRU MRU end with the new owner
        tag. Returns the eviction this caused, if any (already queued for
        delayed delivery to its owner).
        """
        glru = self._glru
        slot = self._slots.get(block)
        if slot is not None:
            # Inline move_to_front (kernel contract; hot path).
            self._owner_at[slot] = owner
            prv, nxt = glru.prev, glru.next
            if nxt[SENTINEL] != slot:
                p, n = prv[slot], nxt[slot]
                nxt[p] = n
                prv[n] = p
                first = nxt[SENTINEL]
                prv[slot] = SENTINEL
                nxt[slot] = first
                prv[first] = slot
                nxt[SENTINEL] = slot
            return None
        eviction = self._make_room()
        slot = self._alloc(block, owner)
        prv, nxt = glru.prev, glru.next
        first = nxt[SENTINEL]
        prv[slot] = SENTINEL
        nxt[slot] = first
        prv[first] = slot
        nxt[SENTINEL] = slot
        glru.size += 1
        return eviction

    def want_cached_demoted(
        self,
        block: Block,
        owner: int,
        colder_neighbour: Optional[Block] = None,
        warmer_neighbour: Optional[Block] = None,
    ) -> Optional[_Eviction]:
        """Cache a *demoted* block at its recency-sorted position.

        A demoted block is not a fresh reference: its recency rank is
        known to the directing client, which names the owner's
        neighbouring blocks already at the server. The server inserts the
        demoted block just warmer than ``colder_neighbour`` (or, lacking
        one, just colder than ``warmer_neighbour``) — the server-side
        counterpart of the paper's DemotionSearching, and what keeps the
        single-client gLRU identical to the client's ``LRU_2`` stack (so
        the gLRU bottom is exactly ``Y_2``).

        With no usable neighbour (the owner has no other block here) the
        block enters at the MRU end like a fresh request.

        The block is inserted at its rank *first* and the gLRU tail
        evicted afterwards — so a demoted block that ranks coldest of
        all is evicted immediately, exactly like the single-client
        cascade where the incoming block can itself be "demoted in turn"
        out of the level (and what keeps the single-client gLRU
        identical to the client's ``LRU_2`` stack).
        """
        slot = self._slots.pop(block, None)
        if slot is not None:
            # Already present (e.g. a stale shared copy): re-own it and
            # reposition it per the demotion rank.
            self._glru.remove(slot)
            self._owner_at[slot] = owner
            self._slots[block] = slot
        else:
            slot = self._alloc(block, owner)
        cold_anchor = (
            self._slots.get(colder_neighbour)
            if colder_neighbour is not None
            else None
        )
        warm_anchor = (
            self._slots.get(warmer_neighbour)
            if warmer_neighbour is not None
            else None
        )
        if cold_anchor is not None and cold_anchor != slot:
            self._glru.insert_before(slot, cold_anchor)
        elif warm_anchor is not None and warm_anchor != slot:
            self._glru.insert_after(slot, warm_anchor)
        else:
            self._glru.push_front(slot)
        if len(self._slots) > self.capacity:
            return self._make_room()
        return None

    def _make_room(self) -> Optional[_Eviction]:
        if not self.full:
            return None
        victim_slot = self._glru.pop_back()
        eviction = _Eviction(
            self._block_at[victim_slot], self._owner_at[victim_slot]
        )
        self._release_slot(victim_slot)
        self._pending.setdefault(eviction.owner, []).append(eviction.block)
        return eviction

    def release(self, block: Block, owner: int) -> bool:
        """Drop a cached block whose owner just redirected it elsewhere
        (e.g. ``Retrieve(b, 2, 1)``). No notice is needed — the owner
        initiated the release. A non-owner release is ignored: another
        client still wants the block at the server. Returns whether the
        block was dropped."""
        slot = self._slots.get(block)
        if slot is None or self._owner_at[slot] != owner:
            return False
        self._glru.remove(slot)
        self._release_slot(slot)
        return True

    def collect_notices(self, client: int) -> List[Block]:
        """Drain the eviction notices queued for ``client``."""
        return self._pending.pop(client, [])

    def resident_blocks(self) -> List[Block]:
        """gLRU contents, MRU first (O(n); tests)."""
        return [self._block_at[slot] for slot in self._glru]

    def share_of(self, client: int) -> int:
        """Number of server buffers currently owned by ``client``."""
        owner_at = self._owner_at
        return sum(1 for slot in self._glru if owner_at[slot] == client)


class ULCMultiClient:
    """One client's ULC engine inside a multi-client system.

    The client's view of each shared level (its ``LRU_j`` stack) mirrors
    which of its blocks it believes that tier caches; a view shrinks on
    eviction notices and grows when the client directs more blocks to
    the tier — the gLRU thereby allocates tier buffers between clients
    dynamically.

    ``server`` is the shared server, or the chain of shared tiers (top
    first).
    """

    def __init__(
        self,
        client_id: int,
        capacity: int,
        server: Union[ULCServer, Sequence[ULCServer]],
        templru_capacity: int = 16,
        max_metadata: Optional[int] = None,
    ) -> None:
        self.client_id = client_id
        self.tiers = (
            (server,) if isinstance(server, ULCServer) else tuple(server)
        )
        self.server = self.tiers[0]
        # A shared level's capacity in the local stack is the tier's full
        # size: the client's share can never exceed it, and the *actual*
        # bound is enforced by gLRU evictions, not by a local cascade.
        self.stack = UniLRUStack(
            [capacity] + [tier.capacity for tier in self.tiers],
            max_size=max_metadata,
        )
        self.capacity = capacity
        check_int("templru_capacity", templru_capacity)
        check_non_negative("templru_capacity", templru_capacity)
        self.templru_capacity = templru_capacity
        # The tempLRU, least recent first; never holds a level-1 block.
        self._temp: OrderedDict[Block, None] = OrderedDict()
        # Kernel-caller handles for the fused access path (the stack's
        # level lists; see the intlist kernel contract).
        self._l1 = self.stack._levels[0]
        self._levels = self.stack._levels

    # -- notices -------------------------------------------------------------

    # repro: bound O(n) amortized -- each queued tier notice is
    # generated by one eviction and delivered once
    def apply_notices(self, blocks: Sequence[Block], level: int = 2) -> int:
        """Apply eviction notices from the tier at ``level``; returns
        how many were live.

        A live notice moves the block's view one level down when the
        tier demoted it into the next tier, and out of the hierarchy
        otherwise. A notice is stale when the client has since re-ranked
        the block (e.g. promoted it to its own cache); stale notices are
        ignored.
        """
        stack = self.stack
        lookup = stack.lookup
        lower = self.tiers[level - 1] if level < stack.num_levels else None
        applied = 0
        for block in blocks:
            node = lookup(block)
            if node is not None and node.level == level:
                if lower is not None and block in lower:
                    stack.relocate(node, level + 1)
                else:
                    stack.evict(node)
                applied += 1
        return applied

    # -- the per-reference protocol ----------------------------------------------

    def access(self, block: Block, count_notice_messages: int = 0) -> AccessEvent:
        """Process one reference by this client.

        ``count_notice_messages`` is added to the event's control-message
        count (used by the immediate-notification ablation). Like
        :meth:`repro.core.protocol.ULCClient.access`, the whole protocol
        runs in one fused frame with positional event construction, and
        a block cached at level 1 takes the first branch: it is never in
        the tempLRU and its recency region is 1, so the reference only
        re-ranks it, with no tier effects.
        """
        stack = self.stack
        node = stack._nodes.get(block)
        if node is not None and node.level == 1:
            stack.touch(node, 1)
            return AccessEvent(
                block, self.client_id, 1, False, 1, (), (),
                count_notice_messages,
            )
        tiers = self.tiers
        temp = self._temp
        client_id = self.client_id
        l1 = self._l1
        in_temp = block in temp
        out = stack.out_level

        demotions: Tuple[Demotion, ...] = ()

        if node is None:
            level_status = out
            region = out
        else:
            level_status = node.level
            # Inline recency_region: R_j is the first level whose
            # yardstick (list tail) is at or below us. A cached block's
            # own level always qualifies, so only the levels above it
            # are searched.
            levels = self._levels
            node_at = stack._node_at
            seq = node.seq
            region = 1
            while region < level_status:
                tail = levels[region - 1].prev[SENTINEL]
                if tail != SENTINEL and seq >= node_at[tail].seq:
                    break
                region += 1

        # -- where is the block actually served from? ---------------------
        if in_temp:
            hit_level: Optional[int] = 1
        elif level_status == out:
            hit_level = None  # disk
        elif block in tiers[level_status - 2]:
            hit_level = level_status
        else:
            # A stale view (the block was demoted or evicted under
            # another owner): search the tiers below, then disk.
            hit_level = None
            for level in range(level_status + 1, out):
                if block in tiers[level - 2]:
                    hit_level = level
                    break

        # -- placement decision (the level tag on the Retrieve) ------------
        if region != out:
            placed: Optional[int] = region
        else:
            # Fill rule: the first level this client's view of which is
            # not full. A shared tier stays "unfilled" while our view of
            # it is below its full size; the gLRU arbitrates the actual
            # allocation between clients (dynamic partitioning). Caching
            # on the fill path costs nothing extra: the block passes
            # through the tiers on its way up anyway.
            placed = stack.first_unfilled_level()

        # -- metadata update ------------------------------------------------
        if node is None:
            stack.insert_new(block, placed if placed is not None else out)
        else:
            stack.touch(node, placed if placed is not None else out)

        # -- effects of the Retrieve tag -----------------------------------
        # A cached block's region never exceeds its level, so a shared
        # block placed above its level leaves its old tier per our
        # direction (after any caching at the new one).
        if placed == 1:
            if 1 < level_status < out:
                tiers[level_status - 2].release(block, client_id)
        elif placed is not None:
            eviction = tiers[placed - 2].want_cached(block, client_id)
            if eviction is not None:
                demotions = self._cascade(placed, eviction, demotions)
            if placed < level_status < out:
                tiers[level_status - 2].release(block, client_id)

        # -- make room at the client cache ----------------------------------
        if placed == 1 and l1.size > self.capacity:
            victim = stack.demote_tail(1)
            colder = stack.colder_neighbour(victim)
            warmer = stack.warmer_neighbour(victim)
            eviction = tiers[0].want_cached_demoted(
                victim.block,
                client_id,
                colder.block if colder is not None else None,
                warmer.block if warmer is not None else None,
            )
            demotions = (Demotion(victim.block, 1, 2),)
            if eviction is not None:
                demotions = self._cascade(2, eviction, demotions)

        event = AccessEvent(
            block, client_id, hit_level, in_temp, placed,
            demotions, (), count_notice_messages,
        )
        # Maintain the tempLRU of blocks passing through uncached.
        if placed == 1:
            if in_temp:
                del temp[block]
        elif in_temp:
            temp.move_to_end(block)
        elif self.templru_capacity:
            temp[block] = None
            if len(temp) > self.templru_capacity:
                temp.popitem(last=False)
        return event

    # repro: bound O(1) -- the cascade descends at most the configured
    # number of shared tiers
    def _cascade(
        self,
        level: int,
        eviction: Optional[_Eviction],
        demotions: Tuple[Demotion, ...],
    ) -> Tuple[Demotion, ...]:
        """Route an eviction from the tier at ``level`` down the chain.

        The overflowing tier demotes its victim into the next tier —
        which may overflow in turn — and the bottom tier drops it.
        Returns ``demotions`` extended by the tier-to-tier transfers.
        """
        tiers = self.tiers
        while eviction is not None:
            victim, owner = eviction.block, eviction.owner
            if level > len(tiers):  # fell out of the bottom tier
                if len(tiers) == 1 and owner == self.client_id:
                    # The one tier evicted one of our own blocks: the
                    # notice rides back on this request's response.
                    self.apply_notices(tiers[0].collect_notices(owner))
                break
            demotions += (Demotion(victim, level, level + 1),)
            eviction = tiers[level - 1].want_cached_demoted(victim, owner)
            level += 1
        return demotions

    def check_invariants(self) -> None:
        """Validate stack and tempLRU invariants (tests).

        The shared-level views are elastic: one may transiently exceed
        its tier's capacity by the number of undelivered eviction
        notices (stale entries), so capacity is checked for level 1
        only. The tempLRU holds at most ``templru_capacity`` blocks and
        no level-1 block.
        """
        self.stack.check_invariants(enforce_capacity=False)
        if self.stack.level_size(1) > self.capacity:
            raise ProtocolError(
                f"client {self.client_id} cache over capacity"
            )
        check_templru(self.stack, self._temp, self.templru_capacity)


class ULCMultiSystem:
    """A complete multi-client ULC system.

    ``server_capacity`` is the size of the one shared server (the
    paper's two-level system), or the sizes of a chain of shared tiers,
    top first. Routes each reference to its client engine, delivering
    any pending eviction notices to that client first (the paper's
    delayed, piggybacked notification), or immediately in
    ``immediate`` mode (ablation: one extra control message per
    delivered notice).
    """

    def __init__(
        self,
        num_clients: int,
        client_capacity: int,
        server_capacity: Union[int, Sequence[int]],
        templru_capacity: int = 16,
        notify: str = NOTIFY_PIGGYBACK,
        max_metadata: Optional[int] = None,
        notice_loss_rate: float = 0.0,
        notice_loss_seed: int = 0,
    ) -> None:
        """``notice_loss_rate`` drops that fraction of eviction notices
        before delivery (fault injection): the protocol must stay
        *correct* — a stale shared-level view only costs a tier miss
        that falls through and is repaired by the client's own
        re-direction (see ``tests/core/test_fault_injection.py``)."""
        check_int("num_clients", num_clients)
        check_positive("num_clients", num_clients)
        check_in("notify", notify, [NOTIFY_PIGGYBACK, NOTIFY_IMMEDIATE])
        check_fraction("notice_loss_rate", notice_loss_rate)
        capacities = (
            list(server_capacity)
            if isinstance(server_capacity, Sequence)
            else [server_capacity]
        )
        if not capacities:
            raise ConfigurationError("at least one shared tier is required")
        self.notify = notify
        self.notice_loss_rate = notice_loss_rate
        self._loss_rng = (
            make_rng(notice_loss_seed) if notice_loss_rate > 0 else None
        )
        self._immediate = notify == NOTIFY_IMMEDIATE
        self.tiers = [ULCServer(capacity) for capacity in capacities]
        self.server = self.tiers[0]
        queues = [tier._pending for tier in self.tiers]
        # ``client in self._owed`` iff some tier holds notices for it.
        self._owed: Container[int] = (
            queues[0] if len(queues) == 1 else ChainMap(*queues)
        )
        self.clients = [
            ULCMultiClient(
                client_id,
                client_capacity,
                self.tiers,
                templru_capacity=templru_capacity,
                max_metadata=max_metadata,
            )
            for client_id in range(num_clients)
        ]
        # Dispatch tables hoisted out of the per-reference path: binding
        # the engine list, its length and the bound access methods once
        # here removes three attribute/len lookups per reference from
        # the hot loop below (multi_client_throughput).
        self._num_clients = num_clients
        self._engines = tuple(self.clients)
        self._access_by_client = tuple(
            engine.access for engine in self.clients
        )
        # (node index, stack touch) per client for the batched hit-run
        # kernel — both are fixed for the system's lifetime.
        self._hit_run_handles = tuple(
            (engine.stack._nodes, engine.stack.touch)
            for engine in self.clients
        )

    def access(self, client: int, block: Block) -> AccessEvent:  # repro: hot
        """Process one reference from ``client``.

        The common case — no pending eviction notices for this client —
        dispatches straight through the prebuilt bound-method table; the
        notice-delivery slow path is factored out so this frame stays
        small.
        """
        if not 0 <= client < self._num_clients:
            raise ConfigurationError(
                f"client {client} out of range [0, {self._num_clients})"
            )
        # Deliver pending notices only when there are any — draining an
        # empty queue per reference would allocate a list each time.
        if client in self._owed:
            return self._access_with_notices(client, block)
        return self._access_by_client[client](block)

    # repro: bound O(n) amortized -- delivers the notices queued for
    # this client; each notice is generated once and delivered once
    def _access_with_notices(self, client: int, block: Block) -> AccessEvent:
        """Slow path: deliver queued eviction notices tier by tier, then
        access."""
        engine = self._engines[client]
        loss_rng = self._loss_rng
        messages = 0
        for level, tier in enumerate(self.tiers, start=2):
            notices = tier.collect_notices(client)
            if loss_rng is not None and notices:
                notices = [
                    notice
                    for notice in notices
                    if loss_rng.random() >= self.notice_loss_rate
                ]
            if self._immediate:
                messages += len(notices)
            engine.apply_notices(notices, level)
        return engine.access(block, count_notice_messages=messages)

    def access_hit_run(  # repro: hot
        self, clients: Sequence[int], blocks: Sequence[Block]
    ) -> int:
        """Fast-forward through a stretch of pure client-cache hits.

        ``clients`` and ``blocks`` are parallel arrays. A reference is a
        trivial hit when its client has no pending eviction notices and
        the block is tracked at that client's level 1: the fused
        :meth:`ULCMultiClient.access` then takes its first branch,
        ``stack.touch(node, 1)`` with no server effects, demotions or
        messages. Stops before the first reference needing the full
        protocol; returns the number consumed.
        """
        handles = self._hit_run_handles
        num_clients = self._num_clients
        pending = self._owed
        count = 0
        # Zero-copy lazy views, not .tolist(): the caller may probe a
        # large window that stops after a few references, and this
        # kernel must cost O(consumed), not O(window).
        if hasattr(clients, "tolist"):
            clients = memoryview(clients)
        if hasattr(blocks, "tolist"):
            blocks = memoryview(blocks)
        for client, block in zip(clients, blocks):
            if not 0 <= client < num_clients:
                break
            if client in pending:
                break
            nodes, touch = handles[client]
            node = nodes.get(block)
            if node is None or node.level != 1:
                break
            touch(node, 1)
            count += 1
        return count

    def check_invariants(self) -> None:
        """Validate every client's invariants plus tier occupancy."""
        for engine in self.clients:
            engine.check_invariants()
        for level, tier in enumerate(self.tiers, start=2):
            if len(tier) > tier.capacity:
                raise ProtocolError(
                    f"shared tier at level {level} over capacity"
                )
