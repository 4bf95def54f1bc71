"""Differential test: ULC's span kernels against the per-reference loop.

``ULCScheme`` and ``ULCMultiScheme`` override
:meth:`MultiLevelScheme.access_span` with their engines' hit-run loops,
which serve pure level-1 hits with one ``touch`` and fold them into the
collector in bulk; ``UnifiedLRUScheme`` inherits ``ULCScheme``'s. The
promise is that a drive through them leaves every collector counter
(per-client lists included) and every piece of protocol state exactly
where a replay of ``scheme.access`` plus ``collector.record``, one
reference at a time, leaves them.

The traces are built to break that: hot sets no larger than level 1
(long hit runs) mixed with scans, warm-up fractions and chunk sizes
that cut through hit runs, tiny hierarchies with a tempLRU and a
metadata bound, shared tiers under piggybacked, immediate and lost
eviction notices, and references by a client the scheme does not have.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.multi import NOTIFY_IMMEDIATE, NOTIFY_PIGGYBACK
from repro.errors import ConfigurationError
from repro.hierarchy import ULCMultiScheme, ULCScheme, UnifiedLRUScheme
from repro.sim import Engine, MetricsCollector
from repro.workloads import Trace


def replay(scheme, blocks, clients, warmup_fraction, collector):
    """The per-reference loop: ``access`` per reference, ``record`` per
    event from the warm-up boundary on."""
    warmup = int(len(blocks) * warmup_fraction)
    for index, (client, block) in enumerate(zip(clients, blocks)):
        event = scheme.access(client, block)
        if index >= warmup:
            collector.record(event)


def counters(collector):
    return {
        name: getattr(collector, name)
        for name in (
            "references", "misses", "level_hits", "boundary_demotions",
            "evictions", "control_messages", "temp_hits",
            "per_client_refs", "per_client_misses", "per_client_demotions",
        )
    }


def stack_state(stack, num_levels):
    """Global recency order with each entry's level, and each level's
    own order."""
    return (
        [(block, stack.lookup(block).level) for block in stack.stack_blocks()],
        [stack.level_blocks(level) for level in range(1, num_levels + 1)],
    )


def state(scheme):
    """Everything the protocol keeps between references."""
    if isinstance(scheme, ULCScheme):
        engine = scheme.engine
        return stack_state(engine.stack, scheme.num_levels), list(engine._temp)
    system = scheme.system
    rng = system._loss_rng
    return (
        [
            (stack_state(engine.stack, scheme.num_levels), list(engine._temp))
            for engine in system.clients
        ],
        [
            [(block, tier.owner_of(block)) for block in tier.resident_blocks()]
            for tier in system.tiers
        ],
        [dict(tier._pending) for tier in system.tiers],
        None if rng is None else rng.bit_generator.state,
    )


def compare(make_scheme, blocks, clients, warmup_fraction, chunk_size,
            batch_size):
    trace = Trace(blocks, clients)
    kernel = make_scheme()
    driven = Engine(kernel, warmup_fraction=warmup_fraction).collect_stream(
        trace, batch_size=batch_size, chunk_size=chunk_size
    )
    scalar = make_scheme()
    replayed = MetricsCollector(scalar.num_levels, scalar.num_clients)
    replay(scalar, blocks, clients, warmup_fraction, replayed)
    assert counters(driven) == counters(replayed)
    assert state(kernel) == state(scalar)


@st.composite
def traces(draw, num_clients, hot_size):
    """Hot runs over at most ``hot_size`` blocks mixed with scans of
    fresh and recurring blocks; each segment from one client or
    round-robin over all of them."""
    blocks = []
    clients = []
    segments = draw(st.lists(
        st.tuples(
            st.booleans(),
            st.integers(1, 12),
            st.integers(0, num_clients),
        ),
        min_size=1, max_size=14,
    ))
    for scan, length, owner in segments:
        if scan:
            start = draw(st.integers(100, 130))
            blocks += range(start, start + length)
        else:
            blocks += draw(st.lists(
                st.integers(0, hot_size - 1),
                min_size=length, max_size=length,
            ))
        for step in range(length):
            # owner == num_clients interleaves the clients per reference
            clients.append(
                step % num_clients if owner == num_clients else owner
            )
    return blocks, clients


drive_options = dict(
    warmup_fraction=st.floats(0.0, 1.0),
    chunk_size=st.integers(1, 7),
    batch_size=st.sampled_from([None, 1, 2, 5]),
)


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    capacities=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    templru=st.integers(0, 3),
    metadata_slack=st.integers(0, 4),
    **drive_options,
)
def test_ulc_span_kernel_matches_per_reference_loop(
    data, capacities, templru, metadata_slack, warmup_fraction,
    chunk_size, batch_size,
):
    blocks, _ = data.draw(traces(1, capacities[0]))

    def make_scheme():
        return ULCScheme(
            capacities,
            templru_capacity=templru,
            max_metadata=sum(capacities) + metadata_slack,
        )

    compare(make_scheme, blocks, [0] * len(blocks), warmup_fraction,
            chunk_size, batch_size)


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    capacities=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    **drive_options,
)
def test_unilru_span_kernel_matches_per_reference_loop(
    data, capacities, warmup_fraction, chunk_size, batch_size,
):
    blocks, _ = data.draw(traces(1, capacities[0]))
    compare(lambda: UnifiedLRUScheme(capacities), blocks,
            [0] * len(blocks), warmup_fraction, chunk_size, batch_size)


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    num_clients=st.integers(1, 3),
    client_capacity=st.integers(1, 3),
    tiers=st.lists(st.integers(1, 4), min_size=1, max_size=2),
    templru=st.integers(0, 2),
    notify=st.sampled_from([NOTIFY_PIGGYBACK, NOTIFY_IMMEDIATE]),
    loss=st.sampled_from([0.0, 0.5]),
    loss_seed=st.integers(0, 3),
    **drive_options,
)
def test_ulc_multi_span_kernel_matches_per_reference_loop(
    data, num_clients, client_capacity, tiers, templru, notify, loss,
    loss_seed, warmup_fraction, chunk_size, batch_size,
):
    blocks, clients = data.draw(traces(num_clients, client_capacity))

    def make_scheme():
        return ULCMultiScheme(
            [client_capacity] + tiers,
            num_clients,
            templru_capacity=templru,
            notify=notify,
            notice_loss_rate=loss,
            notice_loss_seed=loss_seed,
        )

    compare(make_scheme, blocks, clients, warmup_fraction, chunk_size,
            batch_size)


@pytest.mark.parametrize("make_scheme", [
    lambda: ULCScheme([2, 4]),
    lambda: UnifiedLRUScheme([2, 4]),
    lambda: ULCMultiScheme([2, 4], 2),
], ids=["ulc", "unilru", "ulc-multi"])
@pytest.mark.parametrize("batch_size", [None, 4])
@pytest.mark.parametrize("bad_client", [5, -1])
def test_out_of_range_client_mid_span(make_scheme, batch_size, bad_client):
    """A reference by a client the scheme does not have raises
    ConfigurationError in mid-span, after the level-1 hits before it
    were served: they must be in the collector, as in the per-reference
    loop, and the scheme must stop in the same state."""
    kernel = make_scheme()
    # With two clients, client 1 holds block 2 at level 1, so a kernel
    # that indexed its engines by the bad client would serve it a hit.
    blocks = [1, 2, 1, 2, 1, 2, 1, 2, 3, 2, 2, 1]
    clients = [ref % kernel.num_clients for ref in range(9)]
    clients += [bad_client, 0, 0]
    driven = MetricsCollector(kernel.num_levels, kernel.num_clients)
    error = f"client {bad_client} out of range"
    with pytest.raises(ConfigurationError, match=error):
        Engine(kernel, warmup_fraction=0.0).collect_stream(
            Trace(blocks, clients), batch_size=batch_size,
            collector=driven,
        )
    scalar = make_scheme()
    replayed = MetricsCollector(scalar.num_levels, scalar.num_clients)
    with pytest.raises(ConfigurationError, match=error):
        replay(scalar, blocks, clients, 0.0, replayed)
    assert counters(driven) == counters(replayed)
    assert driven.references == 9 and driven.level_hits[0] == 6
    assert state(kernel) == state(scalar)
