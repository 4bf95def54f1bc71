"""The batched drive loop: bit-identical results.

The batch-API redesign promises that ``Engine.drive(trace,
batch_size=...)`` produces the *same* ``RunResult`` — down to the
content hash — as the per-reference loop, for every batch size and
every scheme (batch-capable or not). These tests pin that promise:

- against the committed golden digests (``tests/data/
  golden_seed_core.json``), re-running the full seed scenario set with
  the batched executor and requiring the seed-era hashes;
- scalar-vs-batched on single- and multi-client schemes across batch
  sizes chosen to straddle warm-up and trace boundaries;
- plus the facade contract: validation of ``batch_size``, ``drive``
  without costs, and collectors that do not match the scheme.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.hierarchy import (
    AggregateLRUOracle,
    IndependentScheme,
    MultiLevelScheme,
    ULCMultiScheme,
    ULCScheme,
    UnifiedLRUScheme,
)
from repro.sim import (
    Engine,
    MetricsCollector,
    paper_three_level,
    paper_two_level,
)
from repro.workloads import Trace, zipf_trace
from tests.core.golden_core import result_hash

GOLDEN_PATH = (
    Path(__file__).resolve().parent.parent / "data" / "golden_seed_core.json"
)


def test_batched_executor_matches_golden_run_hashes():
    """The full golden scenario set, executed batched, keeps the
    seed-era content hashes (the tentpole's proof obligation)."""
    from tests.core.golden_core import collect_run_hashes

    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    hashes = collect_run_hashes(check_invariants=500, batch_size=512)
    assert hashes == golden["run_hashes"]


SINGLE_CLIENT_SCHEMES = (
    lambda: ULCScheme([64, 128, 256]),
    lambda: UnifiedLRUScheme([64, 128, 256]),
    lambda: IndependentScheme([64, 128, 256]),
)


@pytest.mark.parametrize("make_scheme", SINGLE_CLIENT_SCHEMES)
@pytest.mark.parametrize("batch_size", [1, 7, 333, 1024, 10_000])
def test_single_client_batched_equals_scalar(make_scheme, batch_size):
    trace = zipf_trace(num_blocks=512, num_refs=4000, seed=5)
    costs = paper_three_level()
    scalar = Engine(make_scheme(), costs).drive(trace)
    batched = Engine(make_scheme(), costs).drive(
        trace, batch_size=batch_size
    )
    assert result_hash(batched) == result_hash(scalar)
    assert batched.comparable() == scalar.comparable()


@pytest.mark.parametrize("batch_size", [1, 13, 256, 4096])
def test_multi_client_batched_equals_scalar(batch_size):
    blocks = zipf_trace(num_blocks=256, num_refs=3000, seed=9).blocks
    trace = Trace(blocks, clients=[i % 3 for i in range(len(blocks))])
    costs = paper_two_level()
    scalar = Engine(ULCMultiScheme([32, 128], 3), costs).drive(trace)
    batched = Engine(ULCMultiScheme([32, 128], 3), costs).drive(
        trace, batch_size=batch_size
    )
    assert result_hash(batched) == result_hash(scalar)
    assert batched.per_client == scalar.per_client


def test_unbatchable_scheme_falls_back_to_scalar():
    """A scheme without a hit-run kernel inherits the consume-nothing
    ``access_hit_run``, so the batched drive runs it per reference."""
    trace = zipf_trace(num_blocks=256, num_refs=2000, seed=4)
    costs = paper_three_level()
    assert (
        AggregateLRUOracle.access_hit_run
        is MultiLevelScheme.access_hit_run
    )
    scalar = Engine(AggregateLRUOracle([32, 64, 128]), costs).drive(trace)
    batched = Engine(AggregateLRUOracle([32, 64, 128]), costs).drive(
        trace, batch_size=64
    )
    assert result_hash(batched) == result_hash(scalar)


@pytest.mark.parametrize("batch_size", [1, 13, 256, 4096])
def test_multi_tier_ulc_scalar_batched_and_streamed_agree(batch_size):
    """Multi-client ULC over a chain of shared tiers keeps the batch
    contract: scalar, batched and streamed drives agree to the hash."""
    blocks = zipf_trace(num_blocks=128, num_refs=3000, seed=4).blocks
    trace = Trace(blocks, clients=[i % 4 for i in range(len(blocks))])
    costs = paper_three_level()

    def drive(**options):
        return Engine(ULCMultiScheme([32, 64, 128], 4), costs).drive(
            trace, **options
        )

    scalar = drive()
    batched = drive(batch_size=batch_size)
    streamed = Engine(
        ULCMultiScheme([32, 64, 128], 4), costs
    ).drive_stream(trace, batch_size=batch_size, chunk_size=700)
    assert result_hash(batched) == result_hash(scalar)
    assert result_hash(streamed) == result_hash(scalar)
    assert batched.per_client == streamed.per_client == scalar.per_client


def test_warmup_boundary_inside_a_hit_run():
    """A consumed hit run straddling the warm-up boundary is clipped:
    only the measured part lands in the counters."""
    # 10 refs, warmup 0.3 -> 3 warm-up refs; block 1 stays a pure L1 hit
    # across the boundary.
    trace = Trace([1, 1, 1, 1, 1, 1, 1, 1, 1, 1])
    engine = Engine(ULCScheme([4, 4]), paper_two_level(), warmup_fraction=0.3)
    scalar = engine.drive(trace)
    batched = engine.drive(trace, batch_size=1024)
    assert batched.references == scalar.references == 7
    assert batched.warmup_references == 3
    assert result_hash(batched) == result_hash(scalar)


class _CountingULC(ULCScheme):
    """ULC that counts its hit-run probes and what they consume."""

    def __init__(self, capacities):
        super().__init__(capacities)
        self.probes = 0
        self.consumed = 0

    def access_hit_run(self, client, blocks):
        consumed = super().access_hit_run(client, blocks)
        self.probes += 1
        self.consumed += consumed
        return consumed


def _probe_counts(blocks, batch_size):
    trace = Trace(blocks)
    costs = paper_two_level()
    scheme = _CountingULC([4, 8])
    batched = Engine(scheme, costs).drive(trace, batch_size=batch_size)
    scalar = Engine(ULCScheme([4, 8]), costs).drive(trace)
    assert result_hash(batched) == result_hash(scalar)
    return scheme.probes, scheme.consumed


def test_back_off_probes_once_per_window_on_short_hit_runs():
    """Runs of two level-1 hits between misses: the scalar stretch
    doubles up to batch_size, so the drive probes about once per
    window instead of once per few references."""
    blocks = []
    for fresh in range(10_000):
        blocks += [0, 1, 1_000_000 + fresh]
    probes, _ = _probe_counts(blocks, 1024)
    assert probes <= len(blocks) // 1024 + 2 * 10


def test_back_off_resets_on_long_hit_runs():
    """Runs of 100 level-1 hits between misses: every long run resets
    the stretch, so the kernel consumes almost every hit."""
    blocks = []
    for fresh in range(300):
        blocks += [0, 1, 2, 3] * 25 + [1_000_000 + fresh]
    _, consumed = _probe_counts(blocks, 1024)
    assert consumed >= 0.95 * len(blocks)


class TestFacadeContract:
    def test_invalid_batch_sizes_rejected(self):
        engine = Engine(ULCScheme([4, 4]), paper_two_level())
        trace = Trace([1, 2, 3])
        for bad in (0, -1, True, 2.5, "16"):
            with pytest.raises(ConfigurationError):
                engine.drive(trace, batch_size=bad)

    def test_drive_without_costs_raises(self):
        engine = Engine(ULCScheme([4, 4]))
        with pytest.raises(ConfigurationError):
            engine.drive(Trace([1, 2, 3]))

    def test_collect_without_costs_works(self):
        metrics = Engine(ULCScheme([4, 4])).collect(
            Trace([1, 2, 1, 1]), batch_size=2
        )
        assert metrics.references > 0

    @pytest.mark.parametrize("levels", [1, 3])
    def test_collector_with_other_level_count_rejected(self, levels):
        # A 3-level collector under a 2-level scheme would report the
        # evictions out of the hierarchy as boundary-2 demotions; a
        # 1-level one would fail mid-run with an IndexError.
        engine = Engine(ULCScheme([8, 16]))
        trace = zipf_trace(200, 5000, seed=1)
        for collect in (engine.collect, engine.collect_stream):
            with pytest.raises(ConfigurationError, match="levels"):
                collect(trace, collector=MetricsCollector(levels))

    @pytest.mark.parametrize("clients", [1, 2, 5])
    def test_collector_with_other_client_count_rejected(self, clients):
        # A 2-client collector under a 3-client scheme would fail only
        # at the first event of client 2, after the warm-up had already
        # changed the scheme; a 5-client one would report two all-zero
        # phantom clients. Both are refused before the first reference.
        blocks = zipf_trace(200, 3000, seed=1).blocks
        trace = Trace(blocks, clients=[i % 3 for i in range(len(blocks))])
        scheme = ULCMultiScheme([8, 16], 3)
        engine = Engine(scheme)
        for collect in (engine.collect, engine.collect_stream):
            with pytest.raises(ConfigurationError, match="clients"):
                collect(trace, collector=MetricsCollector(2, clients))
        assert all(len(client.stack) == 0 for client in scheme.system.clients)

    def test_matching_collector_is_filled_in_place(self):
        trace = zipf_trace(200, 5000, seed=1)
        expected = Engine(ULCScheme([8, 16])).collect(trace)
        collector = MetricsCollector(2)
        engine = Engine(ULCScheme([8, 16]))
        assert engine.collect(trace, collector=collector) is collector
        assert collector.boundary_demotions == expected.boundary_demotions
        assert collector.references == expected.references
