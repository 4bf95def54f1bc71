"""The trace-driven simulation engine.

Feeds a :class:`~repro.workloads.base.Trace` through a
:class:`~repro.hierarchy.base.MultiLevelScheme`, warming the hierarchy on
a leading fraction of the trace (the paper uses the first tenth) and
collecting metrics over the remainder.

:class:`Engine` is the one drive entry point: construct it with a scheme
(and a cost model for packaged results) and call :meth:`Engine.drive`
for a :class:`~repro.sim.results.RunResult` or :meth:`Engine.collect`
for the raw :class:`~repro.sim.metrics.MetricsCollector`. Every entry
point — in-memory traces and streaming sources alike — runs the one
chunk-wise loop :func:`_drive_stream`, so warm-up handling and iteration
order cannot diverge between them.

``batch_size`` selects the *batched* drive loop: it probes the
scheme's ``access_hit_run`` kernel over a window of up to
``batch_size`` references, folds the leading stretch of pure level-1
hits the kernel consumed into the metrics in bulk, and runs the
references from the first one that is anything but a trivial hit
through the per-reference loop. That scalar stretch doubles, up to
``batch_size``, while probes consume little, so the kernels pay on
long all-hit stretches (a warm indLRU client cache) and a trace whose
level-1 hits come in short runs between misses (the Figure-6/7 stream
traces under ULC) runs at scalar speed. Results are bit-identical to
the per-reference loop — the golden digests in
``tests/core/test_slab_equivalence.py`` pin this — batching only
changes how fast the answer arrives.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.hierarchy.base import MultiLevelScheme
from repro.sim.costs import CostModel
from repro.sim.metrics import MetricsCollector
from repro.sim.results import ClientStats, RunResult
from repro.util.validation import check_fraction
from repro.workloads.base import Trace
from repro.workloads.io import DEFAULT_CHUNK_REFS, StreamingTrace, iter_chunks

#: The paper's warm-up fraction ("the first one tenth of block references").
DEFAULT_WARMUP = 0.1

# A hit-run probe that consumes at least this many references resets
# the batched drive's scalar stretch to one reference.
_LONG_HIT_RUN = 32


# repro: hot
def _span_scalar(
    scheme: MultiLevelScheme,
    blocks_arr: np.ndarray,
    clients_arr: Optional[np.ndarray],
    warmup_local: int,
    metrics: MetricsCollector,
) -> None:
    """Feed one contiguous span of references through ``scheme``,
    recording every event from local index ``warmup_local`` onward.

    The span is one chunk of :func:`_drive_stream` (``warmup_local`` is
    the warm-up boundary clamped into the chunk — 0 once warm-up is
    behind us).

    Zero-allocation iteration: the column arrays are walked through
    ``memoryview`` s, which yield plain Python ints per element (dict-key
    speed, no NumPy scalar boxing) without materialising a list copy of
    the span. The loop is split at the warm-up boundary — the measured
    loop records unconditionally instead of testing an index per
    reference — and a span without client annotations skips the client
    column entirely.
    """
    blocks = memoryview(blocks_arr)
    access = scheme.access
    record = metrics.record
    if clients_arr is not None and clients_arr.any():
        clients = memoryview(clients_arr)
        for client, block in zip(
            clients[:warmup_local], blocks[:warmup_local]
        ):
            access(client, block)
        for client, block in zip(
            clients[warmup_local:], blocks[warmup_local:]
        ):
            record(access(client, block))
    else:
        for block in blocks[:warmup_local]:
            access(0, block)
        for block in blocks[warmup_local:]:
            record(access(0, block))


# repro: hot
# repro: bound O(n) amortized -- consumed runs and scalar stretches
# partition the span, and the doubling stretch caps probe overhead
# at a constant factor per reference
def _span_batched(
    scheme: MultiLevelScheme,
    blocks_arr: np.ndarray,
    clients_arr: Optional[np.ndarray],
    warmup_local: int,
    metrics: MetricsCollector,
    batch_size: int,
) -> None:
    """One contiguous span through the batched loop: bit-identical to
    :func:`_span_scalar` over the same span.

    The loop alternates between a probe of the scheme's hit-run kernel
    over a window of up to ``batch_size`` references (consume a stretch
    of pure level-1 hits, record them in bulk —
    :meth:`MetricsCollector.record_l1_hits` is exactly n ``record``
    calls for such events) and a scalar stretch through
    :func:`_span_scalar` from the reference that stopped the run.
    Warm-up is handled by clipping each consumed run against the
    warm-up boundary, so the recorded counters match the split loops of
    :func:`_span_scalar` reference for reference.

    The scalar stretch doubles, up to ``batch_size``, after each probe
    that consumes fewer than ``_LONG_HIT_RUN`` references; a probe that
    consumes that many, or its whole window, resets it to one
    reference. Where level-1 hits come in long runs the kernel takes
    them; where they come in short runs between misses, the loop backs
    off onto the scalar path and probes once per ``batch_size``
    references. Stretches go through the exact ``access`` and runs are
    prefix-exact whatever the probe cadence, so the back-off changes
    throughput only, never results.
    """
    n = len(blocks_arr)
    if clients_arr is not None and not clients_arr.any():
        clients_arr = None
    if clients_arr is None:
        run = scheme.access_hit_run
    else:
        run_multi = scheme.access_hit_run_multi
        num_clients = metrics.num_clients
    record_hits = metrics.record_l1_hits
    stretch = 1
    index = 0
    while index < n:
        end = min(index + batch_size, n)
        if clients_arr is None:
            consumed = run(0, blocks_arr[index:end])
        else:
            consumed = run_multi(
                clients_arr[index:end], blocks_arr[index:end]
            )
        if consumed:
            stop = index + consumed
            measured_from = warmup_local if index < warmup_local \
                else index
            if stop > measured_from:
                if clients_arr is None:
                    record_hits(0, stop - measured_from)
                else:
                    per_client = np.bincount(
                        clients_arr[measured_from:stop],
                        minlength=num_clients,
                    )
                    for client, count in enumerate(per_client.tolist()):
                        if count:
                            record_hits(client, count)
            index = stop
            if index >= end:
                stretch = 1
                continue
        if consumed >= _LONG_HIT_RUN:
            stretch = 1
        else:
            stretch = min(stretch * 2, batch_size)
        stop = min(index + stretch, n)
        _span_scalar(
            scheme,
            blocks_arr[index:stop],
            None if clients_arr is None else clients_arr[index:stop],
            max(warmup_local - index, 0),
            metrics,
        )
        index = stop


# repro: bound O(n) amortized -- chunks partition the stream and
# each span loop visits every reference of its chunk once
def _drive_stream(
    scheme: MultiLevelScheme,
    source: Union[Trace, StreamingTrace],
    warmup_fraction: float,
    metrics: MetricsCollector,
    batch_size: Optional[int],
    chunk_size: int,
) -> int:
    """Chunk-wise drive over an in-memory or streaming source; returns
    the warm-up reference count.

    Each chunk goes through a span loop with the global warm-up boundary
    clamped into the chunk (``warmup_local``), so the recorded counters
    do not depend on the chunking: an in-memory trace below
    ``chunk_size`` references is one span, and a streaming source keeps
    at most one chunk of the reference stream resident (for an
    mmap-backed :class:`~repro.workloads.io.ColumnarTrace`, a zero-copy
    view of the page cache). The batched span's scalar stretch starts
    afresh in each chunk, which changes probe cadence only, never
    results.
    """
    check_fraction("warmup_fraction", warmup_fraction)
    warmup_count = int(len(source) * warmup_fraction)
    batched = batch_size is not None and getattr(
        scheme, "supports_batch", False
    )
    for chunk in iter_chunks(source, chunk_size):
        span = len(chunk.blocks)
        if span == 0:
            continue
        warmup_local = warmup_count - chunk.offset
        if warmup_local < 0:
            warmup_local = 0
        elif warmup_local > span:
            warmup_local = span
        if batched and batch_size is not None:
            _span_batched(
                scheme, chunk.blocks, chunk.clients, warmup_local,
                metrics, batch_size,
            )
        else:
            _span_scalar(
                scheme, chunk.blocks, chunk.clients, warmup_local, metrics
            )
    return warmup_count


def _check_batch_size(batch_size: Optional[int]) -> Optional[int]:
    if batch_size is None:
        return None
    if isinstance(batch_size, bool) or not isinstance(batch_size, int):
        raise ConfigurationError(
            f"batch_size must be None or a positive int, got {batch_size!r}"
        )
    if batch_size < 1:
        raise ConfigurationError(
            f"batch_size must be >= 1, got {batch_size}"
        )
    return batch_size


class Engine:
    """The unified drive entry point.

    One :class:`Engine` binds a scheme, an optional cost model and a
    warm-up fraction; every way of pushing a trace through a hierarchy
    (end-to-end runs, sweeps, tests on raw collectors) goes through
    :meth:`drive` or :meth:`collect`.

    Args:
        scheme: the hierarchy to drive.
        costs: cost model for packaged :class:`RunResult` s; optional
            when only :meth:`collect` is used.
        warmup_fraction: leading fraction of each trace that updates the
            caches but is excluded from every metric.
    """

    def __init__(
        self,
        scheme: MultiLevelScheme,
        costs: Optional[CostModel] = None,
        warmup_fraction: float = DEFAULT_WARMUP,
    ) -> None:
        check_fraction("warmup_fraction", warmup_fraction)
        self.scheme = scheme
        self.costs = costs
        self.warmup_fraction = warmup_fraction

    def drive(
        self, trace: Trace, *, batch_size: Optional[int] = None
    ) -> RunResult:
        """Drive ``trace`` through the scheme; return the measured result.

        ``batch_size`` (references per chunk) engages the batched drive
        loop for schemes advertising
        :attr:`~MultiLevelScheme.supports_batch`; ``None`` runs the
        per-reference loop. The results are identical either way.
        """
        return self.drive_stream(trace, batch_size=batch_size)

    def collect(
        self,
        trace: Trace,
        *,
        batch_size: Optional[int] = None,
        collector: Optional[MetricsCollector] = None,
    ) -> MetricsCollector:
        """Drive ``trace`` and return the raw collector (tests,
        custom analyses). Same loop as :meth:`drive`."""
        return self.collect_stream(
            trace, batch_size=batch_size, collector=collector
        )

    def drive_stream(
        self,
        source: Union[Trace, StreamingTrace],
        *,
        batch_size: Optional[int] = None,
        chunk_size: int = DEFAULT_CHUNK_REFS,
    ) -> RunResult:
        """Drive a streaming source chunk-wise; return the measured
        result.

        The streaming form of :meth:`drive`: ``source`` may be an
        on-disk :class:`~repro.workloads.io.ColumnarTrace` (or any
        :class:`~repro.workloads.io.StreamingTrace`) and is consumed
        one ``chunk_size`` span at a time — the full reference array is
        never materialised. Counters, and therefore the packaged
        result, are bit-identical to materialising the source and
        calling :meth:`drive` with the same ``batch_size``.
        """
        if self.costs is None:
            raise ConfigurationError(
                "Engine.drive needs a cost model: construct the Engine "
                "with costs=..., or use Engine.collect / collect_stream "
                "for raw counters"
            )
        metrics = MetricsCollector(
            self.scheme.num_levels, self.scheme.num_clients
        )
        warmup_count = _drive_stream(
            self.scheme, source, self.warmup_fraction, metrics,
            _check_batch_size(batch_size), chunk_size,
        )
        return result_from_metrics(
            self.scheme.name,
            source.info.name,
            list(self.scheme.capacities),
            metrics,
            self.costs,
            warmup_count,
        )

    def collect_stream(
        self,
        source: Union[Trace, StreamingTrace],
        *,
        batch_size: Optional[int] = None,
        chunk_size: int = DEFAULT_CHUNK_REFS,
        collector: Optional[MetricsCollector] = None,
    ) -> MetricsCollector:
        """Drive a streaming source chunk-wise and return the raw
        collector. Same loop as :meth:`drive_stream`.

        A ``collector`` passed in must have the scheme's number of
        levels; any other shape raises :class:`ConfigurationError`.
        """
        scheme = self.scheme
        if collector is None:
            collector = MetricsCollector(
                scheme.num_levels, scheme.num_clients
            )
        elif collector.num_levels != scheme.num_levels:
            raise ConfigurationError(
                f"collector has {collector.num_levels} levels but "
                f"{scheme.name} has {scheme.num_levels}"
            )
        _drive_stream(
            scheme, source, self.warmup_fraction, collector,
            _check_batch_size(batch_size), chunk_size,
        )
        return collector


def result_from_metrics(
    scheme_name: str,
    workload_name: str,
    capacities: list,
    metrics: MetricsCollector,
    costs: CostModel,
    warmup_count: int,
) -> RunResult:
    """Package a collector's counters into a :class:`RunResult`.

    This is the *single* place the measured counters turn into reported
    rates and time components; :meth:`Engine.drive` and the analytic
    miss-ratio-curve engine (:mod:`repro.analysis.mrc`) both go through
    it, so a curve-derived result is arithmetically identical to a
    simulated one whenever the underlying counters agree. The time
    decomposition keeps the control-message share in its own
    ``t_message_ms`` field (``t_hit + t_miss + t_demotion + t_message ==
    t_ave`` exactly), matching :meth:`MetricsCollector.summary`.
    """
    num_levels = metrics.num_levels
    return RunResult(
        scheme=scheme_name,
        workload=workload_name,
        capacities=list(capacities),
        num_clients=metrics.num_clients,
        references=metrics.references,
        warmup_references=warmup_count,
        level_hit_rates=[
            metrics.hit_rate(level) for level in range(1, num_levels + 1)
        ],
        miss_rate=metrics.miss_rate,
        demotion_rates=[
            metrics.demotion_rate(boundary)
            for boundary in range(1, num_levels)
        ],
        t_ave_ms=metrics.average_access_time(costs),
        t_hit_ms=metrics.hit_time_component(costs),
        t_miss_ms=metrics.miss_time_component(costs),
        t_demotion_ms=metrics.demotion_time_component(costs),
        t_message_ms=metrics.message_time_component(costs),
        extras=_result_extras(metrics),
        per_client=_per_client_stats(metrics),
    )


def _per_client_stats(metrics: MetricsCollector) -> list:
    if metrics.num_clients <= 1:
        return []
    stats = []
    for client in range(metrics.num_clients):
        refs = metrics.per_client_refs[client]
        misses = metrics.per_client_misses[client]
        stats.append(
            ClientStats(
                client=client,
                refs=refs,
                hit_rate=(refs - misses) / refs if refs else 0.0,
                demotions=metrics.per_client_demotions[client],
            )
        )
    return stats


def _result_extras(metrics: MetricsCollector) -> dict:
    extras = {
        "temp_hits": float(metrics.temp_hits),
        "control_messages": float(metrics.control_messages),
        "evictions": float(metrics.evictions),
    }
    if metrics.num_clients > 1:
        # The stringly clientN_* keys duplicate the typed
        # RunResult.per_client entries; they stay while the pinned
        # perfbench stream-multi hash covers them via comparable().
        for client in range(metrics.num_clients):
            refs = metrics.per_client_refs[client]
            misses = metrics.per_client_misses[client]
            extras[f"client{client}_refs"] = float(refs)
            extras[f"client{client}_hit_rate"] = (
                (refs - misses) / refs if refs else 0.0
            )
            extras[f"client{client}_demotions"] = float(
                metrics.per_client_demotions[client]
            )
    return extras
