"""Eviction-based placement (Chen, Zhou & Li, USENIX 2003).

The paper's related work [15] observes that unified-LRU demotions can
saturate the client-server network and proposes *eviction-based
placement*: instead of transferring an evicted client block down over
the network, the lower cache **reloads** it from disk in the background.
The caching layout converges to the same unified-LRU layout, but:

- no demotion transfer rides the critical path or the network;
- each placement costs one background disk read, which consumes disk
  bandwidth and delays the block's availability at the lower level
  (a *reload window* during which a reference to the block still
  misses).

This module implements the two-level multi-client variant next to
:class:`repro.hierarchy.unilru.UnifiedLRUMultiScheme` (identical block
movement decisions) so the demotion-vs-reload trade-off the ULC paper
debates in Section 4.1 can be measured rather than assumed. The reload
window is modelled in references: a reloaded block becomes usable at the
server ``reload_delay`` references after its eviction from the client.

Events report reloads through ``AccessEvent.extras``-free channels: the
scheme counts them and exposes :attr:`reloads`; reloads are *not*
demotions (nothing crosses the client-server link).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Sequence, Tuple

from repro.core.events import AccessEvent
from repro.errors import ConfigurationError, ProtocolError
from repro.hierarchy.base import MultiLevelScheme
from repro.policies.base import Block
from repro.policies.lru import LRUPolicy
from repro.util.validation import check_int, check_non_negative


class EvictionBasedScheme(MultiLevelScheme):
    """Two-level exclusive caching with reload-from-disk placement.

    Args:
        capacities: ``[client_capacity, server_capacity]``.
        num_clients: number of clients.
        reload_delay: references between a client eviction and the
            reloaded copy becoming usable at the server (0 = instant).
    """

    name = "eviction-based"

    def __init__(
        self,
        capacities: Sequence[int],
        num_clients: int = 1,
        reload_delay: int = 32,
    ) -> None:
        if len(capacities) != 2:
            raise ConfigurationError(
                "EvictionBasedScheme models a two-level structure"
            )
        super().__init__(capacities, num_clients)
        check_int("reload_delay", reload_delay)
        check_non_negative("reload_delay", reload_delay)
        self.reload_delay = reload_delay
        self._clients = [LRUPolicy(capacities[0]) for _ in range(num_clients)]
        self._server = LRUPolicy(capacities[1])
        # Blocks whose reload is still in flight: block -> ready time.
        self._pending: Dict[Block, int] = {}
        self._pending_queue: Deque[Tuple[int, Block]] = deque()
        self._clock = 0
        #: Background disk reads issued for placements (the traffic the
        #: scheme trades the network demotions for).
        self.reloads = 0

    # repro: bound O(1) amortized -- each drained entry was queued by
    # exactly one _schedule_reload call, so completions are prepaid by
    # the evictions that scheduled them
    def _complete_reloads(self) -> None:
        queue = self._pending_queue
        pending_get = self._pending.get
        server = self._server
        while queue and queue[0][0] <= self._clock:
            ready_time, block = queue.popleft()
            if pending_get(block) != ready_time:
                continue  # superseded or cancelled
            del self._pending[block]
            if block in server:
                continue
            server.insert(block)

    def _schedule_reload(self, block: Block) -> None:
        self.reloads += 1
        ready = self._clock + self.reload_delay
        self._pending[block] = ready
        self._pending_queue.append((ready, block))

    def access(self, client: int, block: Block) -> AccessEvent:
        self._check_client(client)
        self._clock += 1
        self._complete_reloads()
        cache = self._clients[client]

        if block in cache:
            cache.touch(block)
            return AccessEvent(
                block=block, client=client, hit_level=1, placed_level=1
            )

        if block in self._server:
            hit_level: Optional[int] = 2
            # Exclusive: the copy moves up to the client.
            self._server.remove(block)
        else:
            hit_level = None
            # A pending reload of this block is moot: the client has it.
            self._pending.pop(block, None)

        for victim in cache.insert(block):
            # Placement by reload: no network transfer, one disk read.
            self._schedule_reload(victim)
        return AccessEvent(
            block=block, client=client, hit_level=hit_level, placed_level=1
        )

    @property
    def pending_reloads(self) -> int:
        """Reloads currently in flight."""
        return len(self._pending)

    def check_invariants(self) -> None:
        """Every cache's own checks plus reload-queue time ordering."""
        for cache in self._clients + [self._server]:
            cache.check_invariants()
        previous_ready = None
        for ready, _ in self._pending_queue:
            if previous_ready is not None and ready < previous_ready:
                raise ProtocolError("reload queue out of time order")
            previous_ready = ready
            if ready > self._clock + self.reload_delay:
                raise ProtocolError(
                    f"reload scheduled {ready - self._clock} refs ahead, "
                    f"beyond the {self.reload_delay}-ref window"
                )
