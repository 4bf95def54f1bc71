"""ULC as a :class:`MultiLevelScheme` — adapters over the core engines.

:class:`ULCScheme` wraps the single-client n-level engine
(:class:`repro.core.protocol.ULCClient`); :class:`ULCMultiScheme` wraps
the multi-client system over one or more shared tiers
(:class:`repro.core.multi.ULCMultiSystem`).
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Optional, Sequence

from repro.core.events import AccessEvent
from repro.core.multi import NOTIFY_PIGGYBACK, ULCMultiSystem
from repro.core.protocol import ULCClient
from repro.errors import ConfigurationError, ProtocolError
from repro.hierarchy.base import MultiLevelScheme
from repro.policies.base import Block


class ULCScheme(MultiLevelScheme):
    """Single-client Unified Level-aware Caching over n levels."""

    name = "ULC"

    def __init__(
        self,
        capacities: Sequence[int],
        num_clients: int = 1,
        templru_capacity: int = 16,
        max_metadata: Optional[int] = None,
    ) -> None:
        if num_clients != 1:
            raise ConfigurationError(
                "ULCScheme is single-client; use ULCMultiScheme"
            )
        super().__init__(capacities, num_clients)
        self.engine = ULCClient(
            capacities,
            templru_capacity=templru_capacity,
            max_metadata=max_metadata,
        )

    supports_batch = True

    def access(self, client: int, block: Block) -> AccessEvent:
        self._check_client(client)
        return self.engine.access(block, client)

    def access_hit_run(self, client: int, blocks: Sequence[Block]) -> int:
        """Delegate to the engine's pure level-1 hit kernel."""
        self._check_client(client)
        return self.engine.access_hit_run(blocks)

    def check_invariants(self) -> None:
        """Stack consistency, per-level occupancy and level exclusivity."""
        self.engine.check_invariants()
        seen: Dict[Block, int] = {}
        for level in range(1, self.num_levels + 1):
            for resident in self.engine.resident_blocks(level):
                if resident in seen:
                    raise ProtocolError(
                        f"block {resident!r} cached at levels "
                        f"{seen[resident]} and {level} simultaneously"
                    )
                seen[resident] = level


class ULCMultiScheme(MultiLevelScheme):
    """Multi-client ULC: per-client engines over a shared gLRU server,
    or over a chain of shared tiers (``capacities[1:]``, e.g. clients ->
    file-server cache -> disk-array cache).

    Registered as ``ulc`` in the multi-client registry; the display name
    is ``ULC-multi`` so its :attr:`RunResult.scheme` is distinguishable
    from the single-client :class:`ULCScheme` (``ULC``).
    """

    name = "ULC-multi"

    def __init__(
        self,
        capacities: Sequence[int],
        num_clients: int = 1,
        templru_capacity: int = 16,
        notify: str = NOTIFY_PIGGYBACK,
        max_metadata: Optional[int] = None,
        notice_loss_rate: float = 0.0,
        notice_loss_seed: int = 0,
    ) -> None:
        if len(capacities) < 2:
            raise ConfigurationError(
                "ULCMultiScheme needs a client level and at least one "
                "shared tier"
            )
        super().__init__(capacities, num_clients)
        self.system = ULCMultiSystem(
            num_clients=num_clients,
            client_capacity=capacities[0],
            server_capacity=self.capacities[1:],
            templru_capacity=templru_capacity,
            notify=notify,
            max_metadata=max_metadata,
            notice_loss_rate=notice_loss_rate,
            notice_loss_seed=notice_loss_seed,
        )

    supports_batch = True

    def access(self, client: int, block: Block) -> AccessEvent:
        self._check_client(client)
        return self.system.access(client, block)

    def access_hit_run(self, client: int, blocks: Sequence[Block]) -> int:
        """Single-client run through the system's mixed-client kernel."""
        self._check_client(client)
        return self.system.access_hit_run(repeat(client), blocks)

    def access_hit_run_multi(
        self, clients: Sequence[int], blocks: Sequence[Block]
    ) -> int:
        """Delegate a mixed-client run to the system kernel."""
        return self.system.access_hit_run(clients, blocks)

    def check_invariants(self) -> None:
        """System checks plus per-client level exclusivity.

        A client's stack assigns each tracked block exactly one level;
        this re-derives the property from the per-level lists so a
        corrupted list link cannot hide behind the node index.
        """
        self.system.check_invariants()
        for engine in self.system.clients:
            seen: Dict[Block, int] = {}
            for level in range(1, self.num_levels + 1):
                for block in engine.stack.level_blocks(level):
                    if block in seen:
                        raise ProtocolError(
                            f"client {engine.client_id}: block {block!r} "
                            f"in both its level-{seen[block]} and "
                            f"level-{level} views"
                        )
                    seen[block] = level
