"""Hypothesis lockstep: ``hit_run`` plus ``access`` vs repeated ``access``.

The batched drive reaches a policy through one pair of calls: a
``hit_run`` probe over a window of references, then the exact
``access`` on the reference that stopped the run. That is what
``Engine``'s batched span does through indLRU's client caches. The
contract is that the per-reference loop *is* the specification: for
every registered policy, driving one instance through that pair and a
twin through repeated ``access`` must produce the same hits, the same
eviction stream (order included) and the same final structures after
every window, down to the hit state that only later evictions reveal.

Windows run to 200 references, mostly over a hot set no larger than
the cache, so the probes consume runs far beyond the 32-reference
scalar probe of the vectorised kernels. That pins LRU's scatter dedupe
and the ``_touch_segment`` of MRU, FIFO, CLOCK and SIEVE against the
exact loop, and every other policy's inherited ``hit_run`` against the
single-step path it wraps.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.policies.registry import available_policies, make_policy

#: ``(capacity, warm-up blocks, probe)``: a full capacity-8 cache, then a
#: 200-reference run over its blocks and one miss — a run every policy
#: must consume whole, past the vectorised kernels' scalar probe.
LONG_RUN = (
    8,
    list(range(8)),
    np.random.default_rng(7).integers(0, 8, 200).tolist() + [99],
)


#: First of the never-referenced blocks that probe hidden hit state.
FRESH = 1000


def assert_same_state(runner, twin):
    runner.check_invariants()
    twin.check_invariants()
    assert runner.victim() == twin.victim()
    assert list(runner.resident()) == list(twin.resident())
    assert len(runner) == len(twin)
    # Hit state that victim() and resident() do not show (visited bits,
    # reference bits, counters) decides later evictions: stream fresh
    # blocks through copies of both and compare what they evict.
    runner, twin = copy.deepcopy(runner), copy.deepcopy(twin)
    for block in range(FRESH, FRESH + 2 * runner.capacity):
        assert runner.access(block).evicted == twin.access(block).evicted


@pytest.mark.parametrize("name", available_policies())
class TestBatchLockstep:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_batches_match_single_steps(self, name, data):
        capacity = data.draw(st.integers(2, 8), label="capacity")
        universe = capacity * 3
        runner = make_policy(name, capacity)
        twin = make_policy(name, capacity)
        hot = data.draw(
            st.lists(
                st.integers(0, universe), min_size=1, max_size=capacity,
                unique=True,
            ),
            label="hot",
        )
        for _ in range(data.draw(st.integers(1, 8), label="windows")):
            size = data.draw(st.integers(1, 200), label="window_size")
            # Three windows in four stay on the hot set; the rest mix
            # in any block, so runs stop on misses and evictions.
            pool = (
                st.sampled_from(hot)
                if data.draw(st.integers(0, 3), label="kind")
                else st.integers(0, universe)
            )
            window = data.draw(
                st.lists(pool, min_size=size, max_size=size), label="window"
            )
            consumed = runner.hit_run(np.asarray(window, dtype=np.int64))
            assert 0 <= consumed <= size
            hits = consumed
            evicted = []
            if consumed < size:
                result = runner.access(window[consumed])
                hits += result.hit
                evicted.extend(result.evicted)
            want_hits = 0
            want_evicted = []
            for block in window[:consumed + 1]:
                result = twin.access(block)
                want_hits += result.hit
                want_evicted.extend(result.evicted)
            assert hits == want_hits
            assert evicted == want_evicted
            assert_same_state(runner, twin)

    @settings(max_examples=10, deadline=None)
    @given(
        case=st.lists(st.integers(0, 30), max_size=60).map(
            lambda blocks: (6, blocks, blocks[::-1] + [97, 98])
        )
    )
    @example(case=LONG_RUN)
    def test_hit_run_is_all_hit_prefix(self, name, case):
        """``hit_run`` consumes exactly the all-resident prefix and is
        state-identical to touching it per reference."""
        capacity, blocks, probe = case
        runner = make_policy(name, capacity)
        twin = make_policy(name, capacity)
        for block in blocks:
            runner.access(block)
            twin.access(block)
        consumed = runner.hit_run(np.asarray(probe, dtype=np.int64))
        prefix = 0
        for block in probe:
            if block not in twin:
                break
            twin.touch(block)
            prefix += 1
        assert consumed == prefix
        assert_same_state(runner, twin)
