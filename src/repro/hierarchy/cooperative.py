"""Cooperative caching — client memories as an extra hierarchy level.

The paper's Section 5 points at cooperative caching (Dahlin et al.,
OSDI 1994; Sarkar & Hartman, OSDI 1996; Voelker et al., SIGMETRICS 1998)
as the setting its locality characterisation could further enhance: the
buffer caches of the *other* clients on the LAN form a fourth level
between the server cache and the disks. This module implements the two
classic algorithms so the hierarchy framework covers that related system
too:

- **Greedy forwarding**: every client manages its cache selfishly
  (LRU); the server keeps a directory of which clients hold which
  blocks and forwards misses to a holder. No coordination of contents.
- **N-chance forwarding**: like greedy, but when a client evicts a
  *singlet* (the last client-cached copy), it forwards the block to a
  random peer instead of dropping it, up to ``n_chance`` hops; duplicate
  copies are simply dropped.

Hit levels: 1 = own cache, 2 = server cache, 3 = a peer's cache (one
extra LAN forward). The peer "level" has no capacity of its own — it is
the union of the other clients' caches — so the scheme reports
``capacities = [client, server, client * (num_clients - 1)]`` for
cost-model sizing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.core.events import AccessEvent
from repro.errors import ConfigurationError, ProtocolError
from repro.hierarchy.base import MultiLevelScheme
from repro.policies.base import Block
from repro.policies.lru import LRUPolicy
from repro.sim.costs import DISK_MS, LAN_MS, SAN_MS, CostModel
from repro.util.rng import make_rng
from repro.util.validation import check_int, check_non_negative


def cooperative_costs() -> CostModel:
    """Cost model for the cooperative structure: a peer hit costs two
    LAN transfers (request forwarded by the server, block sent by the
    peer)."""
    return CostModel(
        hit_times=[0.0, LAN_MS, 2 * LAN_MS],
        miss_time=LAN_MS + SAN_MS + DISK_MS,
        demotion_times=[LAN_MS, LAN_MS],
    )


class CooperativeScheme(MultiLevelScheme):
    """Greedy / N-chance cooperative caching over private client LRUs.

    Args:
        capacities: ``[client_capacity, server_capacity]``.
        num_clients: number of cooperating clients (>= 2 for peers to
            exist).
        n_chance: 0 = greedy forwarding (evictions drop); k > 0 = a
            singlet may be forwarded to a random peer up to k times.
        seed: RNG seed for the random peer choice.
    """

    name = "cooperative"

    def __init__(
        self,
        capacities: Sequence[int],
        num_clients: int = 2,
        n_chance: int = 0,
        seed: int = 0,
    ) -> None:
        if len(capacities) != 2:
            raise ConfigurationError(
                "CooperativeScheme takes [client, server] capacities"
            )
        check_int("n_chance", n_chance)
        check_non_negative("n_chance", n_chance)
        peer_capacity = capacities[0] * max(0, num_clients - 1)
        super().__init__(
            [capacities[0], capacities[1], max(1, peer_capacity)], num_clients
        )
        self.n_chance = n_chance
        self.name = f"cooperative[{'greedy' if n_chance == 0 else f'{n_chance}-chance'}]"
        self._rng = make_rng(seed)
        self._clients = [LRUPolicy(capacities[0]) for _ in range(num_clients)]
        self._server = LRUPolicy(capacities[1])
        # Directory: block -> clients holding it (server-maintained).
        self._holders: Dict[Block, Set[int]] = {}
        # Remaining forwarding credits of in-flight N-chance singlets.
        self._chances: Dict[Block, int] = {}

    # -- directory maintenance ----------------------------------------------

    def _client_insert(self, client: int, block: Block) -> List[Block]:
        evicted = self._clients[client].insert(block)
        holders_map = self._holders
        holders = holders_map.get(block)
        if holders is None:
            holders_map[block] = {client}
        else:
            holders.add(client)
        dropped: List[Block] = []
        holders_get = holders_map.get
        for victim in evicted:
            holders = holders_get(victim)
            if holders is not None:
                holders.discard(client)
                if not holders:
                    del self._holders[victim]
                    dropped.append(victim)  # that was the last copy
                    # Its forwarding credits survive here: the caller may
                    # still forward the singlet (N-chance); stale credit
                    # entries are reset on the next fetch of the block.
        return dropped

    def _forward_singlet(self, client: int, block: Block) -> None:
        """N-chance: push the last client copy to a random peer.

        Per Dahlin et al., the block the *receiving* peer replaces is
        simply discarded (never re-forwarded), so forwarding ripples are
        bounded to one hop.
        """
        if self.num_clients < 2:
            return
        credits = self._chances.get(block, self.n_chance)
        if credits <= 0:
            self._chances.pop(block, None)
            return
        # Draw over the num_clients - 1 peers without materialising the
        # peer list: index i maps to i, skipping over ``client``. The
        # draw consumes the same RNG stream as indexing the old
        # ``[c for c in range(n) if c != client]`` list did, so replayed
        # runs pick identical peers.
        draw = int(self._rng.integers(0, self.num_clients - 1))
        peer = draw + 1 if draw >= client else draw
        if block in self._clients[peer]:
            return  # a copy exists after all; nothing to do
        self._chances[block] = credits - 1
        self._client_insert(peer, block)  # its evictions are discarded

    def _maybe_forward(self, client: int, dropped_singlet: Block) -> None:
        if self.n_chance > 0:
            self._forward_singlet(client, dropped_singlet)

    # -- the access path -------------------------------------------------------

    def access(self, client: int, block: Block) -> AccessEvent:
        self._check_client(client)
        cache = self._clients[client]

        if block in cache:
            cache.touch(block)
            return AccessEvent(
                block=block, client=client, hit_level=1, placed_level=1
            )

        if block in self._server:
            self._server.touch(block)
            hit_level: Optional[int] = 2
        else:
            holders = self._holders.get(block)
            # Lowest-numbered other holder, without sorting: a min scan
            # over the holder set is order-insensitive, so the choice
            # stays deterministic under set iteration.
            peer_holder: Optional[int] = None
            if holders:
                for c in holders:
                    if c != client and (
                        peer_holder is None or c < peer_holder
                    ):
                        peer_holder = c
            if peer_holder is not None:
                hit_level = 3  # forwarded from a peer's cache
            else:
                hit_level = None
                # Fetched from disk: the server caches it on the way up.
                self._server.insert(block)

        # A block fetched to a client counts as a fresh copy; its
        # N-chance credits reset.
        self._chances.pop(block, None)
        for dropped in self._client_insert(client, block):
            if dropped != block:
                self._maybe_forward(client, dropped)
        return AccessEvent(
            block=block, client=client, hit_level=hit_level, placed_level=1
        )

    # -- introspection -----------------------------------------------------------

    def holders_of(self, block: Block) -> Set[int]:
        """Clients currently holding ``block`` (directory view)."""
        return set(self._holders.get(block, set()))

    def check_invariants(self) -> None:
        """Every cache's own checks plus directory/cache agreement."""
        for cache in self._clients + [self._server]:
            cache.check_invariants()
        for block, holders in self._holders.items():
            if not holders:
                raise ProtocolError(
                    f"directory entry for {block!r} lists no holders"
                )
            for holder in sorted(holders):
                if block not in self._clients[holder]:
                    raise ProtocolError(
                        f"directory says client {holder} holds {block!r} "
                        f"but its cache does not"
                    )
        for client, cache in enumerate(self._clients):
            for resident in cache.recency_order():
                if client not in self._holders.get(resident, set()):
                    raise ProtocolError(
                        f"client {client} caches {resident!r} without a "
                        f"directory entry"
                    )
