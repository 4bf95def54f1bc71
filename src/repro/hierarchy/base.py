"""The common interface all multi-level caching schemes implement.

A *scheme* owns a complete cache hierarchy — every level's contents and
whatever coordination state it needs — and processes one reference at a
time, reporting an :class:`repro.core.events.AccessEvent`. The simulation
engine, metrics and sweeps are written against this interface only, so
indLRU, uniLRU, MQ, ULC and the oracles are interchangeable.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Optional, Sequence

from repro.core.events import AccessEvent
from repro.errors import ConfigurationError
from repro.policies.base import Block
from repro.util.validation import check_int, check_positive

if TYPE_CHECKING:
    from repro.sim.metrics import MetricsCollector


class MultiLevelScheme(abc.ABC):
    """Abstract multi-level caching scheme.

    Subclasses set :attr:`name` and implement :meth:`access`; the drive
    loop feeds them through :meth:`access_span`.

    Args:
        capacities: block capacity of each level, client (level 1)
            first. In multi-client structures the first entry is the
            *per-client* cache size and the second the shared server
            size.
        num_clients: number of clients issuing references.
    """

    name = "abstract"

    def __init__(self, capacities: Sequence[int], num_clients: int = 1) -> None:
        capacities = list(capacities)
        if not capacities:
            raise ConfigurationError("at least one cache level is required")
        for index, capacity in enumerate(capacities):
            check_int(f"capacities[{index}]", capacity)
            check_positive(f"capacities[{index}]", capacity)
        check_int("num_clients", num_clients)
        check_positive("num_clients", num_clients)
        self.capacities = capacities
        self.num_levels = len(capacities)
        self.num_clients = num_clients

    @abc.abstractmethod
    def access(self, client: int, block: Block) -> AccessEvent:
        """Process one reference from ``client`` and report the outcome."""

    # repro: hot
    def access_span(
        self,
        clients: Optional[Sequence[int]],
        blocks: Sequence[Block],
        metrics: Optional["MetricsCollector"],
    ) -> None:
        """Process one span of references in order, folding each event
        into ``metrics``.

        ``clients`` and ``blocks`` are parallel (``clients`` is ``None``
        when every reference is from client 0); ``metrics`` is ``None``
        during warm-up, when events are dropped. This base loop calls
        :meth:`access` once per reference and
        :meth:`~repro.sim.metrics.MetricsCollector.record` once per
        event. An override must leave the scheme and the collector
        exactly as this loop would, also when a reference raises
        mid-span. ULC's serves pure level-1 hits in its engine's
        hit-run kernel and counts them in bulk; indLRU's and DEMOTE's
        run each reference's whole protocol in a fused loop with no
        event and fold the span's tallies with
        :meth:`~repro.sim.metrics.MetricsCollector.record_counts`.
        """
        access = self.access
        if clients is None:
            if metrics is None:
                for block in blocks:
                    access(0, block)
            else:
                record = metrics.record
                for block in blocks:
                    record(access(0, block))
        elif metrics is None:
            for client, block in zip(clients, blocks):
                access(client, block)
        else:
            record = metrics.record
            for client, block in zip(clients, blocks):
                record(access(client, block))

    def access_hit_run(self, client: int, blocks: Sequence[Block]) -> int:
        """Fast-forward through a leading stretch of *pure level-1 hits*.

        Processes references from ``blocks`` (all issued by ``client``)
        for as long as each one is a trivial hit — an access whose event
        would be exactly ``AccessEvent(block, client, hit_level=1,
        served_from_temp=False, placed_level=1)`` with no demotions,
        evictions or control messages — and stops *before* the first
        reference with any other outcome. Returns how many references
        were consumed; the caller resumes with :meth:`access` from
        there.

        The contract is bit-exactness: consuming ``k`` references here
        must leave the scheme in the same state as ``k`` :meth:`access`
        calls. The base implementation consumes nothing (always exact),
        so the batched drive runs a scheme without a kernel through its
        per-reference path; schemes with a real run kernel override it.
        """
        self._check_client(client)
        return 0

    def access_hit_run_multi(
        self, clients: Sequence[int], blocks: Sequence[Block]
    ) -> int:
        """:meth:`access_hit_run` over a mixed-client reference run.

        ``clients`` and ``blocks`` are parallel; the same pure-hit
        contract applies per reference. Used by the batched drive loop
        on multi-client traces, where clients interleave per reference.
        """
        return 0

    def describe(self) -> str:
        """One-line human-readable description."""
        sizes = "/".join(str(c) for c in self.capacities)
        return f"{self.name} ({sizes} blocks, {self.num_clients} client(s))"

    def _check_client(self, client: int) -> None:
        if not 0 <= client < self.num_clients:
            raise ConfigurationError(
                f"client {client} out of range [0, {self.num_clients})"
            )

    def check_invariants(self) -> None:
        """Validate internal structural invariants.

        Raises :class:`~repro.errors.ProtocolError` on violation. The
        base implementation checks nothing; every concrete scheme
        overrides it with its structural checks (per-level occupancy,
        exclusivity, stack consistency). Driven periodically by
        :class:`repro.checks.invariants.InvariantCheckedScheme` when a
        run is started with ``--check-invariants``.
        """
