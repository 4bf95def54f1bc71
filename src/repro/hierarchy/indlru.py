"""Independent caching (indLRU and variants).

Each level runs its own replacement policy with no coordination: every
miss propagates down until some level (or disk) serves the block, and the
block is then cached at *every* level it passed on the way up
(read-through, inclusive caching). No demotions ever happen — evicted
blocks are simply dropped — which is exactly why low levels see only the
locality-filtered stream and perform poorly (the paper's first
challenge).

``indLRU`` is this scheme with LRU at every level; any registered policy
can be substituted per level (the Figure-7 MQ baseline is the same
composition with MQ at the server, see
:class:`repro.hierarchy.mq_scheme.ClientLRUServerMQ`).

In the multi-client structure the first level is private per client and
the remaining levels are shared.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.events import AccessEvent
from repro.errors import ConfigurationError
from repro.hierarchy.base import MultiLevelScheme
from repro.policies.base import Block, ReplacementPolicy
from repro.policies.registry import make_policy


class IndependentScheme(MultiLevelScheme):
    """Uncoordinated per-level caching (the paper's indLRU baseline)."""

    name = "indLRU"

    def __init__(
        self,
        capacities: Sequence[int],
        num_clients: int = 1,
        policies: Optional[Sequence[str]] = None,
        policy_kwargs: Optional[Sequence[dict]] = None,
    ) -> None:
        super().__init__(capacities, num_clients)
        if policies is None:
            policies = ["lru"] * self.num_levels
        if len(policies) != self.num_levels:
            raise ConfigurationError(
                f"{len(policies)} policies for {self.num_levels} levels"
            )
        if policy_kwargs is None:
            policy_kwargs = [{}] * self.num_levels
        if len(policy_kwargs) != self.num_levels:
            raise ConfigurationError(
                f"{len(policy_kwargs)} policy_kwargs for {self.num_levels} "
                f"levels"
            )
        self._policy_names = list(policies)
        # Level 1 is private per client; lower levels are shared.
        self._client_caches: List[ReplacementPolicy] = [
            make_policy(policies[0], capacities[0], **dict(policy_kwargs[0]))
            for _ in range(num_clients)
        ]
        self._shared: List[ReplacementPolicy] = [
            make_policy(policies[i], capacities[i], **dict(policy_kwargs[i]))
            for i in range(1, self.num_levels)
        ]
        if policies[0] != "lru":
            self.name = "ind-" + "-".join(policies)

    def _level_cache(self, client: int, level: int) -> ReplacementPolicy:
        if level == 1:
            return self._client_caches[client]
        return self._shared[level - 2]

    def access_hit_run(self, client: int, blocks: Sequence[Block]) -> int:
        """Fast-forward through a run of level-1 hits.

        A level-1 hit in :meth:`access` is a bare ``touch`` on the
        client cache (the read-through loop inserts nothing), so the run
        delegates to that policy's :meth:`~ReplacementPolicy.hit_run`:
        a dict loop with one ``move_to_end`` per hit for LRU, the
        default touch loop for a policy without its own.
        """
        self._check_client(client)
        return self._client_caches[client].hit_run(blocks)

    def access(self, client: int, block: Block) -> AccessEvent:
        self._check_client(client)
        hit_level: Optional[int] = None
        for level in range(1, self.num_levels + 1):
            cache = self._level_cache(client, level)
            if block in cache:
                cache.touch(block)
                hit_level = level
                break
        # Cache the block at every level above the serving one
        # (read-through); evictions are silent drops.
        top_missed = self.num_levels if hit_level is None else hit_level - 1
        for level in range(top_missed, 0, -1):
            self._level_cache(client, level).insert(block)
        return AccessEvent(
            block=block,
            client=client,
            hit_level=hit_level,
            placed_level=1,
        )

    def resident(self, client: int, level: int) -> List[Block]:
        """Contents of one cache (tests)."""
        return list(self._level_cache(client, level).resident())

    def check_invariants(self) -> None:
        """Every per-client and shared cache passes its policy's own
        checks (occupancy among them)."""
        for cache in self._client_caches + self._shared:
            cache.check_invariants()
