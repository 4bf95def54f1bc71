"""Tests for multi-client ULC over a chain of shared tiers."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ULCMultiSystem
from repro.errors import ConfigurationError
from repro.hierarchy import ULCMultiScheme


class TestConstruction:
    def test_needs_shared_tier(self):
        with pytest.raises(ConfigurationError):
            ULCMultiSystem(1, client_capacity=2, server_capacity=[])

    def test_scheme_validation(self):
        with pytest.raises(ConfigurationError):
            ULCMultiScheme([4])

    def test_client_range(self):
        system = ULCMultiSystem(1, 2, [2])
        with pytest.raises(ConfigurationError):
            system.access(1, "x")


class TestBasicFlow:
    def test_fill_goes_top_down(self):
        system = ULCMultiSystem(
            1, client_capacity=1, server_capacity=[1, 1],
            templru_capacity=0,
        )
        events = [system.access(0, b) for b in [1, 2, 3]]
        assert [e.placed_level for e in events] == [1, 2, 3]
        assert 2 in system.tiers[0]
        assert 3 in system.tiers[1]

    def test_hit_levels(self):
        system = ULCMultiSystem(
            1, client_capacity=1, server_capacity=[1, 1],
            templru_capacity=0,
        )
        for block in [1, 2, 3]:
            system.access(0, block)
        assert system.access(0, 1).hit_level == 1
        # Block 2 sits at tier level 2 (served there).
        event = system.access(0, 2)
        assert event.hit_level == 2

    def test_tier_overflow_demotes_downwards(self):
        """A shared tier pushing out a block demotes it to the next tier
        (a SAN transfer), not to oblivion."""
        system = ULCMultiSystem(
            2, client_capacity=1, server_capacity=[1, 2],
            templru_capacity=0,
        )
        system.access(0, 10)   # client 0 cache
        system.access(0, 11)   # tier 2
        event = system.access(1, 21)  # client 1 cache
        event = system.access(1, 22)  # tier 2 full -> 11 demotes to tier 3
        demoted = [(d.src, d.dst) for d in event.demotions]
        assert (2, 3) in demoted
        assert 11 in system.tiers[1]
        system.check_invariants()

    def test_owner_view_follows_tier_demotion(self):
        """The owner learns (lazily) that its block moved a tier down
        and serves it from there next time."""
        system = ULCMultiSystem(
            2, client_capacity=1, server_capacity=[1, 4],
            templru_capacity=0,
        )
        system.access(0, 10)
        system.access(0, 11)        # 11 at tier 2, owner 0
        system.access(1, 20)
        system.access(1, 21)        # tier 2 full: 11 demoted to tier 3
        event = system.access(0, 11)  # notice delivered; search finds it
        assert event.hit_level == 3
        system.check_invariants()

    def test_bottom_tier_eviction_drops(self):
        system = ULCMultiSystem(
            1, client_capacity=1, server_capacity=[1, 1],
            templru_capacity=0,
        )
        for block in [1, 2, 3, 4]:
            system.access(0, block)
        # Aggregate is 3 blocks; one of them fell out entirely.
        cached = sum(
            1 for b in [1, 2, 3, 4]
            if b in system.tiers[0] or b in system.tiers[1]
            or system.clients[0].stack.lookup(b) is not None
            and system.clients[0].stack.lookup(b).level == 1
        )
        assert cached <= 3
        system.check_invariants()


class TestThreeLevelStress:
    @settings(max_examples=15, deadline=None)
    @given(
        refs=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 30)),
            min_size=30,
            max_size=300,
        )
    )
    def test_property_invariants(self, refs):
        system = ULCMultiSystem(
            4, client_capacity=2, server_capacity=[4, 8],
            templru_capacity=0,
        )
        for client, block in refs:
            event = system.access(client, block)
            assert event.hit_level in (None, 1, 2, 3)
            for demotion in event.demotions:
                assert demotion.dst == demotion.src + 1
            system.check_invariants()

    def test_scheme_adapter_runs_workload(self):
        from repro.sim import Engine, paper_three_level
        from repro.workloads import db2_like

        trace = db2_like(scale=1 / 1024, num_refs=20000)
        scheme = ULCMultiScheme(
            [32, 128, 256], num_clients=trace.num_clients
        )
        result = Engine(scheme, paper_three_level()).drive(trace)
        assert result.total_hit_rate > 0
        assert len(result.level_hit_rates) == 3
