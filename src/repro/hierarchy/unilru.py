"""Unified LRU (Wong & Wilkes, USENIX 2002) — the paper's uniLRU baseline.

Single-client structure
-----------------------

One conceptual LRU stack spans the aggregate cache: positions
``[0, C1)`` live at level 1, ``[C1, C1+C2)`` at level 2, and so on. Every
reference moves the block to the global MRU position (level 1), so one
block ripples across each boundary above the block's old position — each
ripple is a *demotion*, a physical transfer down the hierarchy. The
hierarchy's hit rate equals a single LRU of the aggregate size (the
scheme's strength), but the demotion traffic is enormous (its weakness —
up to a 100% first-boundary demotion rate on looping workloads, Figure 6).

uniLRU and ULC differ only in where a referenced block goes, so uniLRU
runs on ULC's own uniLRUstack: :class:`UnifiedLRUClient` is a
:class:`~repro.core.protocol.ULCClient` whose ``access`` places the
block at level 1 and demotes each over-full level's yardstick one level
down. The levels stay stratified — every level-``i`` block is more
recent than every level-``i+1`` block — so each demotion's
DemotionSearching walk takes one step, and ULC's scheme adapter, span
kernel and checks serve uniLRU unchanged.

Multi-client structure (the DEMOTE scheme)
------------------------------------------

Each client runs its own LRU cache; the shared server holds an
*exclusive* global LRU: a block read from the server is removed there
(promoted to the client), and a block evicted from a client is demoted
back into the server. Wong & Wilkes supplement this with adaptive cache
insertion policies; we provide ``insertion="mru"`` (their basic DEMOTE),
``"lru"`` (demoted blocks enter at the cold end) and ``"adaptive"``
(per-client choice driven by how often the client's demoted blocks are
actually re-read from the server — an approximation of their adaptive
schemes; the Figure-7 experiment runs all variants and reports the best,
as the paper did).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.events import AccessEvent, Demotion
from repro.core.protocol import ULCClient
from repro.errors import ConfigurationError, ProtocolError
from repro.hierarchy.base import MultiLevelScheme
from repro.hierarchy.ulc import ULCScheme
from repro.policies.base import Block
from repro.policies.lru import LRUPolicy
from repro.util.validation import check_in


class UnifiedLRUClient(ULCClient):
    """ULC's engine with uniLRU's placement rule; built with
    ``templru_capacity=0``, since every referenced block is cached."""

    def access(self, block: Block, client: int = 0) -> AccessEvent:  # repro: hot
        """Place ``block`` at level 1 and ripple the overflow down.

        Each ripple above the last level is a :class:`Demotion`; the
        last level's overflow leaves the hierarchy and is reported in
        ``evicted`` only. The ripple stops at the level the block
        vacated, or runs to the bottom on a miss.
        """
        stack = self.stack
        node = stack.lookup(block)
        hit_level: Optional[int] = None
        if node is None:
            stack.insert_new(block, 1)
        else:
            hit_level = node.level
            stack.touch(node, 1)
        demotions: List[Demotion] = []
        evicted: Tuple[Block, ...] = ()
        capacities = self.capacities
        last = self.num_levels
        level = 1
        while stack.level_size(level) > capacities[level - 1]:
            victim = stack.demote_tail(level).block
            if level == last:
                evicted = (victim,)
                break
            demotions.append(Demotion(victim, level, level + 1))
            level += 1
        return AccessEvent(
            block, client, hit_level, False, 1, tuple(demotions), evicted
        )

    def check_invariants(self) -> None:
        """ULC's checks plus stratification: the stack holds no
        ``L_out`` entry, and every cached block's recency region equals
        its level (ULC only needs ``<=``). The one-step
        DemotionSearching walk rests on both."""
        super().check_invariants()
        stack = self.stack
        for block in stack.stack_blocks():
            node = stack.lookup(block)
            if node is None or node.level == stack.out_level:
                raise ProtocolError(
                    f"uniLRU stack holds the L_out entry {block!r}"
                )
            region = stack.recency_region(node)
            if region != node.level:
                raise ProtocolError(
                    f"uniLRU block {block!r} at level L_{node.level} has "
                    f"recency region R_{region}"
                )


class UnifiedLRUScheme(ULCScheme):
    """Single-client unified LRU over an n-level hierarchy."""

    name = "uniLRU"

    def __init__(self, capacities: Sequence[int], num_clients: int = 1) -> None:
        if num_clients != 1:
            raise ConfigurationError(
                "UnifiedLRUScheme is single-client; use UnifiedLRUMultiScheme"
            )
        # ULCScheme's constructor would build a ULC engine.
        MultiLevelScheme.__init__(self, capacities, num_clients)
        self.engine = UnifiedLRUClient(capacities, templru_capacity=0)

    def global_order(self) -> List[Block]:
        """The aggregate LRU stack, MRU first (tests)."""
        return self.engine.stack.stack_blocks()


INSERT_MRU = "mru"
INSERT_LRU = "lru"
INSERT_ADAPTIVE = "adaptive"


class UnifiedLRUMultiScheme(MultiLevelScheme):
    """Multi-client DEMOTE: private client LRUs + exclusive shared server.

    Args:
        capacities: ``[client_capacity, server_capacity]``.
        num_clients: number of clients.
        insertion: where demoted blocks enter the server LRU — ``"mru"``,
            ``"lru"`` or ``"adaptive"``.
        adaptive_window: accesses over which the adaptive variant
            evaluates each client's demote-reuse rate.
    """

    name = "uniLRU-multi"

    def __init__(
        self,
        capacities: Sequence[int],
        num_clients: int = 1,
        insertion: str = INSERT_MRU,
        adaptive_window: int = 1000,
    ) -> None:
        if len(capacities) != 2:
            raise ConfigurationError(
                "UnifiedLRUMultiScheme models a two-level structure"
            )
        super().__init__(capacities, num_clients)
        check_in("insertion", insertion, [INSERT_MRU, INSERT_LRU, INSERT_ADAPTIVE])
        self.insertion = insertion
        self.adaptive_window = adaptive_window
        self._clients = [LRUPolicy(capacities[0]) for _ in range(num_clients)]
        self._server = LRUPolicy(capacities[1])
        self.name = f"uniLRU-multi[{insertion}]"
        # Adaptive state: per client, demotes issued and demoted blocks
        # later re-read from the server within the current window.
        self._demoted_by: Dict[Block, int] = {}
        self._window_demotes = [0] * num_clients
        self._window_reuses = [0] * num_clients
        self._window_left = adaptive_window
        self._client_mode = [INSERT_MRU] * num_clients

    def _roll_window(self) -> None:
        self._window_left -= 1
        if self._window_left > 0:
            return
        for client in range(self.num_clients):
            demotes = self._window_demotes[client]
            reuses = self._window_reuses[client]
            # Clients whose demoted blocks are rarely re-read pollute the
            # server MRU end: insert their demotes at the LRU end instead.
            if demotes >= 8:
                rate = reuses / demotes
                self._client_mode[client] = (
                    INSERT_MRU if rate >= 0.1 else INSERT_LRU
                )
            self._window_demotes[client] = 0
            self._window_reuses[client] = 0
        self._window_left = self.adaptive_window

    def _insert_mode(self, client: int) -> str:
        if self.insertion == INSERT_ADAPTIVE:
            return self._client_mode[client]
        return self.insertion

    def _demote_to_server(
        self, client: int, victim: Block, demotions: List[Demotion],
        evicted: List[Block],
    ) -> None:
        if victim in self._server:
            # Another client demoted the same block earlier; refresh it.
            self._server.remove(victim)
        demotions.append(Demotion(victim, 1, 2))
        self._window_demotes[client] += 1
        self._demoted_by[victim] = client
        if self._insert_mode(client) == INSERT_LRU:
            dropped = self._server.insert_at_lru_end(victim)
        else:
            dropped = self._server.insert(victim)
        demoted_by_pop = self._demoted_by.pop
        for block in dropped:
            demoted_by_pop(block, None)
            evicted.append(block)

    def access(self, client: int, block: Block) -> AccessEvent:
        self._check_client(client)
        cache = self._clients[client]
        demotions: List[Demotion] = []
        evicted: List[Block] = []

        if block in cache:
            cache.touch(block)
            hit_level: Optional[int] = 1
        else:
            if block in self._server:
                hit_level = 2
                # Exclusive caching: the server copy moves to the client.
                self._server.remove(block)
                owner = self._demoted_by.pop(block, None)
                if owner is not None:
                    self._window_reuses[owner] += 1
            else:
                hit_level = None
            overflow = cache.insert(block)
            for victim in overflow:
                self._demote_to_server(client, victim, demotions, evicted)

        if self.insertion == INSERT_ADAPTIVE:
            self._roll_window()
        return AccessEvent(
            block=block,
            client=client,
            hit_level=hit_level,
            placed_level=1,
            demotions=tuple(demotions),
            evicted=tuple(evicted),
        )

    def check_invariants(self) -> None:
        """Occupancy bounds plus demote-ownership bookkeeping."""
        for client, cache in enumerate(self._clients):
            if len(cache) > self.capacities[0]:
                raise ProtocolError(
                    f"client {client} cache holds {len(cache)} blocks, "
                    f"capacity {self.capacities[0]}"
                )
        if len(self._server) > self.capacities[1]:
            raise ProtocolError(
                f"server holds {len(self._server)} blocks, capacity "
                f"{self.capacities[1]}"
            )
        for block in self._demoted_by:
            if block not in self._server:
                raise ProtocolError(
                    f"demote-owner tag for {block!r} outlived its server "
                    f"residency"
                )
