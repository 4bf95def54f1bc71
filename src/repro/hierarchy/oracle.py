"""Aggregate-size single-cache oracles.

The paper's goal (1) says a good unified scheme should "retain the same
hit rate as that of a single level cache whose size equals to the
aggregate size of multi-level caches". These oracles provide that
reference point: a single cache of the summed capacity running LRU (the
bound uniLRU attains exactly) or OPT (the offline optimum). They report
every hit at level 1 and never demote — they measure hit rates, not
realistic access times.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.events import AccessEvent
from repro.hierarchy.base import MultiLevelScheme
from repro.policies.base import Block
from repro.policies.lru import LRUPolicy
from repro.policies.opt import OPTPolicy


class AggregateLRUOracle(MultiLevelScheme):
    """A single LRU cache of the aggregate hierarchy size."""

    name = "aggLRU"

    def __init__(self, capacities: Sequence[int], num_clients: int = 1) -> None:
        super().__init__(capacities, num_clients)
        self._cache = LRUPolicy(sum(self.capacities))

    def access(self, client: int, block: Block) -> AccessEvent:
        self._check_client(client)
        result = self._cache.access(block)
        return AccessEvent(
            block=block,
            client=client,
            hit_level=1 if result.hit else None,
            placed_level=1,
            evicted=tuple(result.evicted),
        )

    def check_invariants(self) -> None:
        """The aggregate cache passes its policy's own checks; its
        capacity is the summed hierarchy size."""
        self._cache.check_invariants()


class AggregateOPTOracle(MultiLevelScheme):
    """A single OPT (Belady) cache of the aggregate hierarchy size.

    Requires the full future single-stream reference string (block ids in
    access order, all clients merged).
    """

    name = "aggOPT"

    def __init__(
        self,
        capacities: Sequence[int],
        trace_blocks: Sequence[Block],
        num_clients: int = 1,
    ) -> None:
        super().__init__(capacities, num_clients)
        self._cache = OPTPolicy(sum(self.capacities), trace_blocks)

    def access(self, client: int, block: Block) -> AccessEvent:
        self._check_client(client)
        result = self._cache.access(block)
        return AccessEvent(
            block=block,
            client=client,
            hit_level=1 if result.hit else None,
            placed_level=1,
            evicted=tuple(result.evicted),
        )

    def check_invariants(self) -> None:
        """The aggregate cache passes its policy's own checks; its
        capacity is the summed hierarchy size."""
        self._cache.check_invariants()
