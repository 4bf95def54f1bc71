"""Tests for the cost model and the metrics collector."""

from __future__ import annotations

import pytest

from repro.core.events import AccessEvent, Demotion
from repro.errors import ConfigurationError, ProtocolError
from repro.sim import (
    BLOCK_BYTES,
    MetricsCollector,
    bytes_to_blocks,
    custom,
    paper_three_level,
    paper_two_level,
)


class TestCostModel:
    def test_paper_three_level_parameters(self):
        costs = paper_three_level()
        assert list(costs.hit_times) == [0.0, 1.0, 1.2]
        assert costs.miss_time == pytest.approx(11.2)
        assert list(costs.demotion_times) == [1.0, 0.2]

    def test_paper_two_level_parameters(self):
        costs = paper_two_level()
        assert list(costs.hit_times) == [0.0, 1.0]
        assert costs.miss_time == pytest.approx(11.2)

    def test_mismatched_demotion_costs_rejected(self):
        with pytest.raises(ConfigurationError):
            custom([0.0, 1.0], 10.0, [])

    def test_event_cost_hit(self):
        costs = paper_three_level()
        assert costs.event_cost(AccessEvent(block=1, hit_level=2)) == 1.0

    def test_event_cost_miss(self):
        costs = paper_three_level()
        assert costs.event_cost(AccessEvent(block=1)) == pytest.approx(11.2)

    def test_event_cost_with_demotions(self):
        costs = paper_three_level()
        event = AccessEvent(
            block=1,
            hit_level=1,
            demotions=(Demotion(9, 1, 2), Demotion(8, 2, 3)),
        )
        assert costs.event_cost(event) == pytest.approx(1.2)

    def test_eviction_demotion_is_free(self):
        costs = paper_three_level()
        event = AccessEvent(block=1, hit_level=1, demotions=(Demotion(9, 3, 4),))
        assert costs.event_cost(event) == 0.0

    def test_message_cost(self):
        costs = custom([0.0, 1.0], 10.0, [1.0], message_time=0.5)
        event = AccessEvent(block=1, hit_level=1, control_messages=3)
        assert costs.event_cost(event) == pytest.approx(1.5)

    def test_bytes_to_blocks(self):
        assert bytes_to_blocks(BLOCK_BYTES) == 1
        assert bytes_to_blocks(100 * 1024 * 1024) == 12800
        assert bytes_to_blocks(1) == 1


class TestMetricsCollector:
    def make_events(self):
        return [
            AccessEvent(block=1, hit_level=1),
            AccessEvent(block=2, hit_level=2, demotions=(Demotion(7, 1, 2),)),
            AccessEvent(block=3),  # miss
            AccessEvent(block=4, hit_level=3, demotions=(Demotion(6, 2, 3),)),
            AccessEvent(block=5, served_from_temp=True, hit_level=1),
        ]

    def test_rates(self):
        metrics = MetricsCollector(3)
        for event in self.make_events():
            metrics.record(event)
        assert metrics.references == 5
        assert metrics.hit_rate(1) == pytest.approx(0.4)
        assert metrics.hit_rate(2) == pytest.approx(0.2)
        assert metrics.hit_rate(3) == pytest.approx(0.2)
        assert metrics.miss_rate == pytest.approx(0.2)
        assert metrics.total_hit_rate == pytest.approx(0.8)
        assert metrics.demotion_rate(1) == pytest.approx(0.2)
        assert metrics.demotion_rate(2) == pytest.approx(0.2)
        assert metrics.temp_hits == 1

    def test_t_ave_formula(self):
        """T_ave = sum h_i T_i + h_miss T_m + sum T_di h_di (Sec. 4.1)."""
        metrics = MetricsCollector(3)
        for event in self.make_events():
            metrics.record(event)
        costs = paper_three_level()
        expected = (
            0.4 * 0.0 + 0.2 * 1.0 + 0.2 * 1.2   # hits
            + 0.2 * 11.2                          # miss
            + 0.2 * 1.0 + 0.2 * 0.2               # demotions
        )
        assert metrics.average_access_time(costs) == pytest.approx(expected)
        assert metrics.hit_time_component(costs) == pytest.approx(0.44)
        assert metrics.miss_time_component(costs) == pytest.approx(2.24)
        assert metrics.demotion_time_component(costs) == pytest.approx(0.24)

    def test_empty_collector(self):
        metrics = MetricsCollector(2)
        assert metrics.total_hit_rate == 0.0
        assert metrics.miss_rate == 0.0
        assert metrics.demotion_rate(1) == 0.0
        assert metrics.average_access_time(paper_two_level()) == 0.0

    def test_eviction_not_counted_as_demotion(self):
        metrics = MetricsCollector(2)
        metrics.record(
            AccessEvent(block=1, hit_level=1, demotions=(Demotion(5, 2, 3),))
        )
        assert metrics.demotion_rate(1) == 0.0

    def test_summary_keys(self):
        metrics = MetricsCollector(2)
        metrics.record(AccessEvent(block=1, hit_level=1))
        summary = metrics.summary(paper_two_level())
        for key in ["hit_rate_L1", "hit_rate_L2", "demotion_rate_B1",
                    "t_ave_ms", "miss_rate"]:
            assert key in summary

    def test_per_client_accounting(self):
        metrics = MetricsCollector(2, num_clients=2)
        metrics.record(AccessEvent(block=1, client=0, hit_level=1))
        metrics.record(AccessEvent(block=2, client=1))
        assert metrics.per_client_refs == [1, 1]
        assert metrics.per_client_misses == [0, 1]

    @pytest.mark.parametrize("client", [-1, 2])
    def test_rejected_event_leaves_counters_unchanged(self, client):
        metrics = MetricsCollector(2, num_clients=2)
        metrics.record(AccessEvent(block=1, client=0, hit_level=1))
        before = metrics.summary(paper_two_level())
        with pytest.raises(ProtocolError):
            metrics.record(AccessEvent(block=2, client=client, hit_level=1))
        assert metrics.summary(paper_two_level()) == before
        assert metrics.hit_rate(1) == 1.0
        assert metrics.references == sum(metrics.per_client_refs)
