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

from collections import OrderedDict
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Container,
    List,
    Optional,
    Sequence,
)

from repro.core.events import AccessEvent
from repro.errors import ConfigurationError
from repro.hierarchy.base import MultiLevelScheme
from repro.policies.base import Block, ReplacementPolicy
from repro.policies.lru import LRUPolicy, MRUPolicy
from repro.policies.registry import make_policy

if TYPE_CHECKING:
    from repro.sim.metrics import MetricsCollector


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
        # What access_span tests a client-level hit against and touches:
        # an LRU or MRU cache's OrderedDict, whose move_to_end is all
        # the policy's touch does, or else the policy itself.
        client_type = type(self._client_caches[0])
        self._hit_touch: Callable[[Any, Block], None] = client_type.touch
        self._hit_sets: List[Container[Block]] = list(self._client_caches)
        if client_type in (LRUPolicy, MRUPolicy):
            self._hit_touch = OrderedDict.move_to_end
            self._hit_sets = [cache._order for cache in self._client_caches]

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

    # repro: hot
    def access_span(
        self,
        clients: Optional[Sequence[int]],
        blocks: Sequence[Block],
        metrics: Optional["MetricsCollector"],
    ) -> None:
        """:meth:`access` over the span with no event per reference.

        A client-level hit is served inline: on an LRU or MRU client
        cache it is ``move_to_end`` on the policy's ``OrderedDict``,
        which is all the policy's ``touch`` does; any other policy goes
        through its own ``__contains__`` and ``touch``. Every other
        reference takes :meth:`_read_through`, as in :meth:`access`.
        Hits and misses are counted locally and reach
        :meth:`~repro.sim.metrics.MetricsCollector.record_counts` once,
        in a ``finally``, so a reference that raises (a client the
        scheme does not have) leaves scheme and collector where the
        per-reference loop would.
        """
        hit_sets = self._hit_sets
        hit_touch = self._hit_touch
        read_through = self._read_through
        num_clients = self.num_clients
        refs = [0] * num_clients
        misses = [0] * num_clients
        level_hits = [0] * self.num_levels
        try:
            if clients is None:
                # One client: a hit needs no client check and no index.
                hit_set = hit_sets[0]
                for block in blocks:
                    if block in hit_set:
                        hit_touch(hit_set, block)
                    else:
                        level = read_through(0, block)
                        if level is None:
                            misses[0] += 1
                        else:
                            level_hits[level - 1] += 1
                    refs[0] += 1
            else:
                for client, block in zip(clients, blocks):
                    if not 0 <= client < num_clients:
                        self._check_client(client)
                    hit_set = hit_sets[client]
                    if block in hit_set:
                        hit_touch(hit_set, block)
                    else:
                        level = read_through(client, block)
                        if level is None:
                            misses[client] += 1
                        else:
                            level_hits[level - 1] += 1
                    refs[client] += 1
        finally:
            if metrics is not None:
                level_hits[0] = sum(refs) - sum(misses) - sum(level_hits)
                metrics.record_counts(refs, misses, level_hits)

    def _read_through(self, client: int, block: Block) -> Optional[int]:
        """Serve a reference that missed ``client``'s cache: the first
        shared level holding ``block`` serves it, and every level above
        that one caches it, deepest first; evictions are silent drops.
        Returns the serving level, or ``None`` for a miss."""
        levels = self._shared
        depth = 0
        for shared in levels:
            if block in shared:
                shared.touch(block)
                break
            depth += 1
        level = depth + 2 if depth < len(levels) else None
        while depth:
            depth -= 1
            levels[depth].insert(block)
        self._client_caches[client].insert(block)
        return level

    def access(self, client: int, block: Block) -> AccessEvent:
        self._check_client(client)
        cache = self._client_caches[client]
        if block in cache:
            cache.touch(block)
            hit_level: Optional[int] = 1
        else:
            hit_level = self._read_through(client, block)
        return AccessEvent(
            block=block,
            client=client,
            hit_level=hit_level,
            placed_level=1,
        )

    def resident(self, client: int, level: int) -> List[Block]:
        """Contents of one cache (tests)."""
        if level == 1:
            return list(self._client_caches[client].resident())
        return list(self._shared[level - 2].resident())

    def check_invariants(self) -> None:
        """Every per-client and shared cache passes its policy's own
        checks (occupancy among them)."""
        for cache in self._client_caches + self._shared:
            cache.check_invariants()
