"""Extending the library: plug a custom replacement policy into a level.

Implements a toy SLRU (segmented LRU) policy against the
:class:`repro.policies.base.ReplacementPolicy` interface, registers it,
and runs it as the server policy of an independent two-level hierarchy
next to plain LRU and MQ.

Run:  python examples/custom_policy.py
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro import Engine, paper_two_level, zipf_trace
from repro.hierarchy import IndependentScheme
from repro.policies import LRUPolicy, ReplacementPolicy, register_policy
from repro.policies.base import Block
from repro.util.tables import format_table


class SLRUPolicy(ReplacementPolicy):
    """Segmented LRU: a probationary and a protected LRU segment.

    New blocks enter the probationary segment; a hit promotes a block to
    the protected segment (demoting its overflow back to probation).
    Victims always come from the probationary segment.
    """

    name = "slru"

    def __init__(self, capacity: int, protected_fraction: float = 0.8) -> None:
        super().__init__(capacity)
        protected = max(1, int(capacity * protected_fraction))
        protected = min(protected, capacity - 1) if capacity > 1 else 0
        self._protected = LRUPolicy(protected) if protected else None
        self._probation = LRUPolicy(capacity - protected)

    def __contains__(self, block: Block) -> bool:
        in_protected = self._protected is not None and block in self._protected
        return in_protected or block in self._probation

    def __len__(self) -> int:
        protected = len(self._protected) if self._protected else 0
        return protected + len(self._probation)

    def touch(self, block: Block) -> None:
        self._require_resident(block)
        if self._protected is not None and block in self._protected:
            self._protected.touch(block)
            return
        # Promote from probation to protected.
        self._probation.remove(block)
        if self._protected is None:
            self._probation.insert(block)
            return
        for overflow in self._protected.insert(block):
            self._probation.insert(overflow)

    def insert(self, block: Block) -> List[Block]:
        self._require_absent(block)
        return self._probation.insert(block)

    def remove(self, block: Block) -> None:
        self._require_resident(block)
        if self._protected is not None and block in self._protected:
            self._protected.remove(block)
        else:
            self._probation.remove(block)

    def victim(self) -> Optional[Block]:
        if not self.full:
            return None
        return self._probation.victim()

    def resident(self) -> Iterator[Block]:
        if self._protected is not None:
            yield from self._protected.resident()
        yield from self._probation.resident()


def main() -> None:
    register_policy(SLRUPolicy.name, SLRUPolicy)

    trace = zipf_trace(num_blocks=4000, num_refs=120_000, seed=3)
    costs = paper_two_level()
    rows = []
    for server_policy, kwargs in [("lru", {}), ("mq", {}), ("slru", {})]:
        scheme = IndependentScheme(
            [100, 800],
            policies=["lru", server_policy],
            policy_kwargs=[{}, kwargs],
        )
        result = Engine(scheme, costs).drive(trace)
        rows.append(
            [
                f"LRU client + {server_policy.upper()} server",
                result.level_hit_rates[0],
                result.level_hit_rates[1],
                result.miss_rate,
                result.t_ave_ms,
            ]
        )
    print(
        format_table(
            ["composition", "L1 hit", "L2 hit", "miss", "T_ave (ms)"],
            rows,
            title="Custom policy (SLRU) as the second-level cache",
        )
    )


if __name__ == "__main__":
    main()
