"""Accounting equivalences: aggregate metrics == per-event costs.

``T_ave`` computed from rates (the paper's formula) must equal the mean
of per-event costs (the cost model applied event by event), and the rate
decomposition must always sum to one. These hold by construction only if
the metrics, the cost model and the engine agree on every event field —
a regression net over the whole accounting path.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hierarchy import make_scheme
from repro.sim import MetricsCollector, paper_three_level, paper_two_level
from repro.workloads import Trace


@settings(max_examples=30, deadline=None)
@given(
    blocks=st.lists(st.integers(0, 25), min_size=10, max_size=300),
    scheme_name=st.sampled_from(["indlru", "unilru", "ulc"]),
)
def test_rate_formula_equals_mean_event_cost(blocks, scheme_name):
    scheme = make_scheme(scheme_name, [4, 6, 8])
    costs = paper_three_level()
    metrics = MetricsCollector(3)
    event_costs = []
    for block in blocks:
        event = scheme.access(0, block)
        metrics.record(event)
        event_costs.append(costs.event_cost(event))
    formula = metrics.average_access_time(costs)
    per_event = sum(event_costs) / len(event_costs)
    assert formula == pytest.approx(per_event, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(
    blocks=st.lists(st.integers(0, 25), min_size=10, max_size=300),
    scheme_name=st.sampled_from(
        ["indlru", "unilru", "mq", "ulc", "eviction-based", "ulc-static"]
    ),
)
def test_hit_and_miss_rates_partition_unity(blocks, scheme_name):
    scheme = make_scheme(scheme_name, [4, 8], num_clients=2)
    metrics = MetricsCollector(2, num_clients=2)
    for index, block in enumerate(blocks):
        metrics.record(scheme.access(index % 2, block))
    assert metrics.total_hit_rate + metrics.miss_rate == pytest.approx(1.0)
    assert sum(
        metrics.hit_rate(level) for level in (1, 2)
    ) == pytest.approx(metrics.total_hit_rate)
    assert sum(metrics.per_client_refs) == metrics.references


@settings(max_examples=20, deadline=None)
@given(blocks=st.lists(st.integers(0, 15), min_size=20, max_size=200))
def test_run_simulation_matches_manual_replay(blocks):
    """Engine.drive's RunResult equals a by-hand replay with the same
    warm-up split."""
    from repro.sim import Engine

    trace = Trace(blocks)
    costs = paper_two_level()
    result = Engine(
        make_scheme("ulc", [3, 5]), costs, warmup_fraction=0.1
    ).drive(trace)
    scheme = make_scheme("ulc", [3, 5])
    metrics = MetricsCollector(2)
    warm = int(len(blocks) * 0.1)
    for index, block in enumerate(blocks):
        event = scheme.access(0, block)
        if index >= warm:
            metrics.record(event)
    assert result.t_ave_ms == pytest.approx(
        metrics.average_access_time(costs), abs=1e-9
    )
    assert result.miss_rate == pytest.approx(metrics.miss_rate)
