"""The ``stream-single`` and ``stream-multi`` workloads.

A generated trace is written as a ``.ctr`` columnar directory and
driven through ``Engine(scheme, costs).drive_stream(ColumnarTrace(path))``
with a fresh ULC scheme per drive, alternately by the scalar loop and
by the batched loop (``batch_size=1024``).

The traced run breaks one scalar drive down by subtraction:

- ingest: a walk of ``ColumnarTrace(path).chunks()`` over each
  chunk's memoryview;
- drive loop: ``Engine.collect_stream`` over the null scheme and the
  null collector, minus ingest;
- core: the direct ``ULCClient.access`` / ``ULCMultiSystem.access`` loop
  minus the same loop over the stub core;
- adapter: the ``ULCScheme.access`` / ``ULCMultiScheme.access`` loop
  minus the direct core loop;
- metrics: ``MetricsCollector.record`` replayed over the core's
  post-warm-up events (captured in an untimed pass), minus the same
  replay into the null collector.

Every probe loop has the same shape, so loop and call overheads cancel
in each difference. All times are seconds at the reference speed (see
:func:`perfbench.speed.at_reference_speed`), so that passes run
seconds apart can be subtracted; repeated probes report their fastest
pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from repro.core.multi import ULCMultiSystem
from repro.core.protocol import ULCClient
from repro.hierarchy.base import MultiLevelScheme
from repro.hierarchy.registry import make_scheme
from repro.sim.costs import CostModel, paper_three_level, paper_two_level
from repro.sim.engine import DEFAULT_WARMUP, Engine, result_from_metrics
from repro.sim.metrics import MetricsCollector
from repro.workloads import (
    ColumnarTrace,
    Trace,
    httpd_like,
    save_columnar,
    zipf_large,
)

from perfbench.harness import (
    HitRunProbe,
    NullCollector,
    NullScheme,
    Outcome,
    Window,
    median,
    null_access,
    result_hash,
    unattributed,
)
from perfbench.speed import at_reference_speed, fastest

#: References per trace. Half of the 10^6 a full Figure-6 trace would
#: use, so that a run fits several scalar/batched pairs; the per-
#: reference cost is the same once the 10% warm-up is behind.
NUM_REFS = 500_000
#: The paper geometry scaled by 1/16, as in the Figure-6/7 presets.
GEOMETRY = 1.0 / 16.0
BATCH_SIZE = 1024
SETUP_REPEATS = 3
PROBE_REPEATS = 3


@dataclass(frozen=True)
class StreamCase:
    """One stream workload: its trace, hierarchy and direct core."""

    name: str
    make_trace: Callable[[int], Trace]
    capacities: Tuple[int, ...]
    num_clients: int
    costs: Callable[[], CostModel]
    #: A fresh core engine's ``access``, called the way the adapter
    #: calls it.
    core_access: Callable[[], Callable]
    core_metric: str
    #: Scalar-drive result hash per seed, pinned from a known-good run.
    pinned: Dict[int, str]

    def build(self) -> MultiLevelScheme:
        return make_scheme("ulc", list(self.capacities), self.num_clients)


SINGLE = StreamCase(
    name="stream-single",
    make_trace=lambda seed: zipf_large(
        scale=GEOMETRY, num_refs=NUM_REFS, seed=seed
    ),
    capacities=(800, 800, 800),
    num_clients=1,
    costs=paper_three_level,
    core_access=lambda: ULCClient([800, 800, 800]).access,
    core_metric="core.protocol.access_s",
    pinned={
        1: "2084e61c71b0d0cb40cd469680bae558edd039da225f4c96f1f9cb4f031d1f34",
    },
)

MULTI = StreamCase(
    name="stream-multi",
    make_trace=lambda seed: httpd_like(
        scale=GEOMETRY, num_refs=NUM_REFS, seed=seed
    ),
    capacities=(256, 2048),
    num_clients=7,
    costs=paper_two_level,
    core_access=lambda: ULCMultiSystem(
        num_clients=7, client_capacity=256, server_capacity=2048
    ).access,
    core_metric="core.multi.access_s",
    pinned={
        1: "c9b30d2dca9f2afac9529e9e8817df68e651e92ff385786a79534928528fece5",
    },
)

CASES = {case.name: case for case in (SINGLE, MULTI)}


def setup(case: StreamCase, workdir: Path, seed: int) -> Tuple[Path, float]:
    """Generate the trace, write it as ``.ctr`` and build a scheme,
    ``SETUP_REPEATS`` times; return the trace path and the median
    set-up time."""
    path = workdir / f"{case.name}.ctr"
    times = [
        at_reference_speed(
            lambda: (save_columnar(case.make_trace(seed), path), case.build())
        )[0]
        for _ in range(SETUP_REPEATS)
    ]
    return path, median(times)


def drive(
    scheme: object, case: StreamCase, path: Path, batch_size: object
) -> Callable[[], object]:
    """One ``drive_stream`` of the trace, ready to be timed."""
    engine = Engine(scheme, case.costs())  # type: ignore[arg-type]
    return lambda: engine.drive_stream(
        ColumnarTrace(path), batch_size=batch_size
    )


def measure(
    case: StreamCase, workdir: Path, seed: int, seconds: float, out: Outcome
) -> Tuple[Dict[str, float], List[str]]:
    """The untraced run: scalar/batched pairs until the window closes,
    then the in-memory drive as a cross-check."""
    path, setup_s = setup(case, workdir, seed)
    scalar: List[float] = []
    batched: List[float] = []
    walls: List[float] = []
    reference = None
    window = Window(seconds)
    while window.more():
        for batch_size, times in ((None, scalar), (BATCH_SIZE, batched)):
            seconds_at_reference, wall, result = at_reference_speed(
                drive(case.build(), case, path, batch_size)
            )
            out.op()
            digest = result_hash(result)
            reference = reference or digest
            out.check(
                digest == reference,
                f"{case.name}: batch_size={batch_size} drive differs",
            )
            times.append(seconds_at_reference)
            if batch_size is None:
                walls.append(wall)
        window.done_round()
    in_memory = Engine(case.build(), case.costs()).drive(
        ColumnarTrace(path).materialize()
    )
    out.op()
    out.check(
        result_hash(in_memory) == reference,
        f"{case.name}: in-memory Engine.drive differs from drive_stream",
    )
    if seed in case.pinned:
        out.check(
            reference == case.pinned[seed],
            f"{case.name}: result hash {reference} != pinned "
            f"{case.pinned[seed]} for seed {seed}",
        )
    notes = [
        f"refs_per_s {NUM_REFS / median(scalar):.1f} refs/s at the "
        f"reference speed (median of {len(scalar)} scalar drives of "
        f"{NUM_REFS} refs; {NUM_REFS / median(walls):.1f} by the wall clock)",
        f"refs_per_s_batched {NUM_REFS / median(batched):.1f} refs/s at the "
        f"reference speed (batch_size={BATCH_SIZE})",
        f"result hash {reference}",
    ]
    metrics = {
        "op_s": median(scalar),
        "fast_op_s": median(batched),
        "setup_s": setup_s,
    }
    return metrics, notes


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------


def walk(path: Path) -> int:
    """Ingest only: every reference of every chunk, through memoryviews
    as the drive loop reads them."""
    count = 0
    for chunk in ColumnarTrace(path).chunks():
        for _ in memoryview(chunk.blocks):
            count += 1
        if chunk.clients is not None:
            for _ in memoryview(chunk.clients):
                pass
    return count


def discard(event: object) -> None:
    pass


def call_loop(
    path: Path, fn: Callable, block_first: bool,
    consume: Callable[[object], None] = discard,
) -> None:
    """Call ``fn`` once per reference with the adapter's or the core's
    argument order and hand each return value to ``consume``.

    Timed passes discard the events as the drive loop does: keeping
    half a million of them alive would charge the collector's scans of
    them to whichever layer produced them.
    """
    for chunk in ColumnarTrace(path).chunks():
        blocks = memoryview(chunk.blocks)
        if chunk.clients is not None:
            for client, block in zip(memoryview(chunk.clients), blocks):
                consume(fn(client, block))
        elif block_first:
            for block in blocks:
                consume(fn(block, 0))
        else:
            for block in blocks:
                consume(fn(0, block))


def replay(events: List[object], record: Callable) -> None:
    for event in events:
        record(event)


def trace(
    case: StreamCase, workdir: Path, seed: int, out: Outcome
) -> Tuple[Dict[str, float], List[str]]:
    """The traced run: per-layer self times and counts."""
    path, _ = setup(case, workdir, seed)
    single = case.num_clients == 1

    untraced = [
        at_reference_speed(drive(case.build(), case, path, bs))
        for bs in (None, BATCH_SIZE)
    ]
    scalar_probe = HitRunProbe(case.build())
    batched_probe = HitRunProbe(case.build())
    traced = [
        at_reference_speed(drive(scalar_probe, case, path, None)),
        at_reference_speed(drive(batched_probe, case, path, BATCH_SIZE)),
    ]
    out.op(4)
    digests = {result_hash(result) for _, _, result in untraced + traced}
    out.check(
        len(digests) == 1,
        f"{case.name}: traced and untraced drives differ",
    )
    overhead = (
        sum(seconds for seconds, _, _ in traced)
        / sum(seconds for seconds, _, _ in untraced) - 1.0
    )
    scalar_s, _, scalar_result = traced[0]

    ingest = fastest(PROBE_REPEATS, lambda: walk(path))
    null_drive = fastest(
        PROBE_REPEATS,
        lambda: Engine(
            NullScheme(list(case.capacities), case.num_clients)
        ).collect_stream(
            ColumnarTrace(path),
            collector=NullCollector(len(case.capacities), case.num_clients),
        ),
    )
    stub = fastest(PROBE_REPEATS, lambda: call_loop(path, null_access, single))
    core = fastest(1, lambda: call_loop(path, case.core_access(), single))
    adapter = fastest(1, lambda: call_loop(path, case.build().access, False))
    events: List[object] = []
    call_loop(path, case.core_access(), single, events.append)
    out.op(3)
    events = events[int(len(events) * DEFAULT_WARMUP):]

    collector = MetricsCollector(len(case.capacities), case.num_clients)
    replay(events, collector.record)
    replayed = result_from_metrics(
        scalar_result.scheme,  # type: ignore[attr-defined]
        scalar_result.workload,  # type: ignore[attr-defined]
        list(case.capacities),
        collector,
        case.costs(),
        NUM_REFS - len(events),
    )
    out.op()
    out.check(
        result_hash(replayed) == result_hash(scalar_result),
        f"{case.name}: the direct core loop's events do not reproduce "
        f"the drive's result",
    )
    record = fastest(
        PROBE_REPEATS,
        lambda: replay(
            events,
            MetricsCollector(len(case.capacities), case.num_clients).record,
        ),
    )
    record_null = fastest(
        PROBE_REPEATS,
        lambda: replay(
            events,
            NullCollector(len(case.capacities), case.num_clients).record,
        ),
    )

    layers = {
        "workloads.io.ingest_s": ingest,
        "sim.engine.loop_s": null_drive - ingest,
        "hierarchy.ulc.adapter_s": adapter - core,
        case.core_metric: core - stub,
        "sim.metrics.record_s": record - record_null,
    }
    result = scalar_result
    references = result.references  # type: ignore[attr-defined]
    extras = result.extras  # type: ignore[attr-defined]
    metrics: Dict[str, float] = dict(layers)
    metrics.update({
        "traced_wall_s": scalar_s,
        "unattributed_s": unattributed(scalar_s, layers),
        "trace_overhead_frac": overhead,
        "sim.engine.hit_run_s": batched_probe.seconds,
        "sim.engine.hit_run_calls": float(batched_probe.calls),
        "sim.engine.hit_run_consumed_frac": batched_probe.consumed / NUM_REFS,
        "sim.engine.hit_run_empty_frac": (
            batched_probe.empty / batched_probe.calls
            if batched_probe.calls else 0.0
        ),
        "core.l1_hit_rate": result.level_hit_rates[0],  # type: ignore[attr-defined]
        "core.miss_rate": result.miss_rate,  # type: ignore[attr-defined]
        "core.demotions_per_ref": sum(result.demotion_rates),  # type: ignore[attr-defined]
        "core.evictions_per_ref": extras["evictions"] / references,
        "core.temp_hits_per_ref": extras["temp_hits"] / references,
        "core.control_messages_per_ref": (
            extras["control_messages"] / references
        ),
    })
    notes = [
        f"scalar hit-run probe calls {scalar_probe.calls} (expected 0)",
        f"layer probes: ingest {ingest:.3f}s, null drive {null_drive:.3f}s, "
        f"stub loop {stub:.3f}s, core loop {core:.3f}s, "
        f"adapter loop {adapter:.3f}s, replay {record:.3f}s, "
        f"null replay {record_null:.3f}s",
    ]
    out.check(scalar_probe.calls == 0, "scalar drive called a hit-run kernel")
    return metrics, notes
