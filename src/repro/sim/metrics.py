"""Metrics collection: hit rates, demotion rates, access-time breakdown.

Accumulates :class:`repro.core.events.AccessEvent`s and produces the
numbers the paper's figures report: per-level hit rates, per-boundary
demotion rates, the average access time ``T_ave`` and its hit / miss /
demotion components.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.events import AccessEvent
from repro.errors import ProtocolError
from repro.sim.costs import CostModel


@dataclass
class LevelStats:
    """Hit statistics of one level."""

    hits: int = 0


class MetricsCollector:
    """Accumulates events and computes the paper's metrics.

    Args:
        num_levels: hierarchy depth.
        num_clients: client count (per-client metrics are kept too).
    """

    def __init__(self, num_levels: int, num_clients: int = 1) -> None:
        self.num_levels = num_levels
        self.num_clients = num_clients
        self.references = 0
        self.misses = 0
        self.level_hits = [0] * num_levels
        self.boundary_demotions = [0] * num_levels  # index i: level i+1 -> i+2
        self.evictions = 0
        self.control_messages = 0
        self.temp_hits = 0
        self.per_client_refs = [0] * num_clients
        self.per_client_misses = [0] * num_clients
        self.per_client_demotions = [0] * num_clients

    def record(self, event: AccessEvent) -> None:
        """Fold one event into the counters.

        Raises:
            ProtocolError: when ``event.client`` is outside
                ``[0, num_clients)`` — silently remapping would
                misattribute per-client statistics. A rejected event
                leaves every counter unchanged.
        """
        (_, client, hit_level, from_temp, _, demotions, evicted,
         messages) = event
        if not 0 <= client < self.num_clients:
            raise ProtocolError(
                f"event for client {client} recorded by a collector "
                f"tracking {self.num_clients} client(s)"
            )
        self.references += 1
        self.per_client_refs[client] += 1
        if hit_level is None:
            self.misses += 1
            self.per_client_misses[client] += 1
        else:
            self.level_hits[hit_level - 1] += 1
        if from_temp:
            self.temp_hits += 1
        if demotions:
            for demotion in demotions:
                if demotion.dst <= self.num_levels:
                    self.boundary_demotions[demotion.src - 1] += 1
                    self.per_client_demotions[client] += 1
        if evicted:
            self.evictions += len(evicted)
        if messages:
            self.control_messages += messages

    def record_l1_hits(self, client: int, count: int) -> None:
        """Fold ``count`` pure level-1 hits by ``client`` into the counters.

        A *pure* level-1 hit is an event with ``hit_level == 1`` and no
        other effects (no temp serve, no demotions, no evictions, no
        control messages) — exactly what the batched drive loop's
        ``access_hit_run`` fast path produces. For such events only three
        integer counters move, so one bulk call is identical to ``count``
        :meth:`record` calls.
        """
        if count <= 0:
            return
        if not 0 <= client < self.num_clients:
            raise ProtocolError(
                f"events for client {client} recorded by a collector "
                f"tracking {self.num_clients} client(s)"
            )
        self.references += count
        self.per_client_refs[client] += count
        self.level_hits[0] += count

    # -- derived rates ---------------------------------------------------------

    def hit_rate(self, level: int) -> float:
        """``h_level``: fraction of references served by ``level``."""
        if self.references == 0:
            return 0.0
        return self.level_hits[level - 1] / self.references

    @property
    def total_hit_rate(self) -> float:
        if self.references == 0:
            return 0.0
        return sum(self.level_hits) / self.references

    @property
    def miss_rate(self) -> float:
        if self.references == 0:
            return 0.0
        return self.misses / self.references

    def demotion_rate(self, boundary: int) -> float:
        """``h_d,boundary``: demotions across boundary ``i -> i+1`` per
        reference (boundary is 1-based)."""
        if self.references == 0:
            return 0.0
        return self.boundary_demotions[boundary - 1] / self.references

    # -- access time --------------------------------------------------------------

    def average_access_time(self, costs: CostModel) -> float:
        """``T_ave`` under the given cost model."""
        return (
            self.hit_time_component(costs)
            + self.miss_time_component(costs)
            + self.demotion_time_component(costs)
            + self.message_time_component(costs)
        )

    def hit_time_component(self, costs: CostModel) -> float:
        """``sum_i h_i T_i`` (ms per reference)."""
        return sum(
            self.hit_rate(level) * costs.hit_times[level - 1]
            for level in range(1, self.num_levels + 1)
        )

    def miss_time_component(self, costs: CostModel) -> float:
        """``h_miss * T_m`` (ms per reference)."""
        return self.miss_rate * costs.miss_time

    def demotion_time_component(self, costs: CostModel) -> float:
        """``sum_i T_di h_di`` (ms per reference)."""
        return sum(
            self.demotion_rate(boundary) * costs.demotion_times[boundary - 1]
            for boundary in range(1, self.num_levels)
        )

    def message_time_component(self, costs: CostModel) -> float:
        """Control-message time per reference (ablations only)."""
        if self.references == 0:
            return 0.0
        return self.control_messages / self.references * costs.message_time

    # -- reporting ------------------------------------------------------------------

    def summary(self, costs: Optional[CostModel] = None) -> Dict[str, float]:
        """Flat dict of every metric (for results/serialisation).

        The access-time decomposition matches
        :meth:`repro.sim.engine.Engine.drive`:
        ``t_hit_ms + t_miss_ms + t_demotion_ms + t_message_ms ==
        t_ave_ms`` holds exactly, control messages included.
        """
        out: Dict[str, float] = {
            "references": float(self.references),
            "total_hit_rate": self.total_hit_rate,
            "miss_rate": self.miss_rate,
            "evictions": float(self.evictions),
            "control_messages": float(self.control_messages),
            "temp_hits": float(self.temp_hits),
        }
        for level in range(1, self.num_levels + 1):
            out[f"hit_rate_L{level}"] = self.hit_rate(level)
        for boundary in range(1, self.num_levels):
            out[f"demotion_rate_B{boundary}"] = self.demotion_rate(boundary)
        if costs is not None:
            out["t_ave_ms"] = self.average_access_time(costs)
            out["t_hit_ms"] = self.hit_time_component(costs)
            out["t_miss_ms"] = self.miss_time_component(costs)
            out["t_demotion_ms"] = self.demotion_time_component(costs)
            out["t_message_ms"] = self.message_time_component(costs)
        return out
