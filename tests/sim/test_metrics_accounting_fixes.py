"""Regression tests for the metrics-accounting bugfix sweep.

Pins the four fixes shipped together with the MRC engine:

- ``summary()`` (and ``RunResult``) report the control-message time as
  an explicit ``t_message_ms`` component instead of silently folding it
  into ``t_demotion_ms`` — the decomposition sums exactly to ``t_ave``
  even when control messages flow;
- ``MetricsCollector.record`` raises :class:`ProtocolError` for events
  whose client id the collector does not track (previously they were
  silently remapped to client 0);
- :mod:`repro.sim.metrics` imports ``Optional`` — its annotations
  resolve under ``typing.get_type_hints``.
"""

from __future__ import annotations

import copy
import typing

import pytest

from repro.core.events import AccessEvent, Demotion
from repro.errors import ProtocolError
from repro.hierarchy.registry import make_scheme
from repro.sim.costs import CostModel
from repro.sim.engine import Engine
from repro.sim.metrics import MetricsCollector
from repro.sim.results import RunResult, save_results_csv
from repro.workloads.synthetic import zipf_trace

MESSAGE_COSTS = CostModel(
    hit_times=[0.0, 1.0],
    miss_time=11.2,
    demotion_times=[1.0],
    message_time=0.2,
)

#: The same prices over a chain of two shared tiers.
MESSAGE_COSTS_3 = CostModel(
    hit_times=[0.0, 1.0, 1.2],
    miss_time=11.2,
    demotion_times=[1.0, 0.2],
    message_time=0.2,
)


def _collector_with_traffic() -> MetricsCollector:
    metrics = MetricsCollector(num_levels=2, num_clients=1)
    metrics.record(AccessEvent(block=1, hit_level=1, control_messages=2))
    metrics.record(
        AccessEvent(
            block=2,
            hit_level=None,
            demotions=(Demotion(block=9, src=1, dst=2),),
            control_messages=1,
        )
    )
    metrics.record(AccessEvent(block=3, hit_level=2))
    return metrics


class TestMessageTimeComponent:
    def test_summary_components_sum_exactly_with_messages(self):
        metrics = _collector_with_traffic()
        summary = metrics.summary(MESSAGE_COSTS)
        assert summary["t_message_ms"] > 0.0
        assert summary["t_ave_ms"] == (
            summary["t_hit_ms"]
            + summary["t_miss_ms"]
            + summary["t_demotion_ms"]
            + summary["t_message_ms"]
        )

    def test_demotion_component_excludes_messages(self):
        metrics = _collector_with_traffic()
        summary = metrics.summary(MESSAGE_COSTS)
        # One demotion across boundary 1 in three references, at 1 ms.
        assert summary["t_demotion_ms"] == pytest.approx(1.0 / 3.0)
        # Three control messages in three references, at 0.2 ms.
        assert summary["t_message_ms"] == pytest.approx(0.2)

    def test_run_simulation_decomposition_with_messages(self):
        assert_decomposition_with_messages([32, 128], MESSAGE_COSTS)

    def test_run_simulation_decomposition_with_messages_over_two_tiers(
        self,
    ):
        assert_decomposition_with_messages([32, 64, 128], MESSAGE_COSTS_3)

    def test_comparable_and_csv_carry_the_field(self, tmp_path):
        trace = zipf_trace(100, 800, seed=6)
        result = Engine(
            make_scheme("ulc", [16, 64], 1), MESSAGE_COSTS, warmup_fraction=0.1
        ).drive(trace)
        assert "t_message_ms" in result.comparable()
        path = tmp_path / "out.csv"
        save_results_csv([result], path)
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert "t_message_ms" in header.split(",")

    def test_runresult_default_is_zero(self):
        # Deserialization of documents predating the field stays valid.
        assert RunResult.__dataclass_fields__["t_message_ms"].default == 0.0


def assert_decomposition_with_messages(levels, costs):
    from repro.workloads.multiclient import make_multi_workload

    # Control messages are counted in the immediate-notification mode of
    # the multi-client ULC system (the E8b ablation).
    trace = make_multi_workload("httpd", scale=0.02, num_refs=2000)
    result = Engine(
        make_scheme("ulc", levels, trace.num_clients, notify="immediate"),
        costs,
        warmup_fraction=0.1,
    ).drive(trace)
    assert result.t_message_ms > 0.0
    assert result.t_ave_ms == (
        result.t_hit_ms
        + result.t_miss_ms
        + result.t_demotion_ms
        + result.t_message_ms
    )


class TestClientIdValidation:
    @pytest.mark.parametrize("client", [-1, 1, 7])
    def test_out_of_range_client_raises(self, client):
        metrics = MetricsCollector(num_levels=2, num_clients=1)
        with pytest.raises(ProtocolError, match="client"):
            metrics.record(
                AccessEvent(block=1, client=client, hit_level=1)
            )

    def test_in_range_clients_attributed_correctly(self):
        metrics = MetricsCollector(num_levels=2, num_clients=3)
        metrics.record(AccessEvent(block=1, client=2, hit_level=None))
        assert metrics.per_client_refs == [0, 0, 1]
        assert metrics.per_client_misses == [0, 0, 1]

    @pytest.mark.parametrize("tallies", [
        {"refs": [1, 0, 0, 0]},
        {"refs": [1], "misses": [0, 0, 0, 1]},
        {"refs": [1], "level_hits": [1, 0, 0]},
        {"refs": [1], "boundary_demotions": [1, 0, 0]},
    ], ids=["refs", "misses", "level-hits", "boundary-demotions"])
    def test_overlong_tallies_rejected_unchanged(self, tallies):
        metrics = MetricsCollector(num_levels=2, num_clients=3)
        metrics.record(AccessEvent(block=1, client=2, hit_level=None))
        before = copy.deepcopy(vars(metrics))
        with pytest.raises(ProtocolError, match="tallies"):
            metrics.record_counts(**tallies)
        assert vars(metrics) == before


def test_record_counts_equals_one_record_per_event():
    """The span kernels' bulk fold against the per-event path."""
    events = [
        AccessEvent(block=1, client=0, hit_level=1),
        AccessEvent(block=2, client=1, hit_level=2,
                    demotions=(Demotion(5, 1, 2),), evicted=(6,)),
        AccessEvent(block=3, client=1, hit_level=None,
                    demotions=(Demotion(7, 1, 2),)),
        AccessEvent(block=4, client=2, hit_level=None),
    ]
    recorded = MetricsCollector(num_levels=2, num_clients=3)
    for event in events:
        recorded.record(event)
    folded = MetricsCollector(num_levels=2, num_clients=3)
    folded.record_counts(
        refs=[1, 2, 1], misses=[0, 1, 1], level_hits=[1, 1],
        demotions=[0, 2], boundary_demotions=[2], evictions=1,
    )
    assert vars(folded) == vars(recorded)


class TestAnnotationsResolve:
    def test_get_type_hints_on_metrics_module(self):
        # Fails with NameError if the Optional import regresses.
        hints = typing.get_type_hints(MetricsCollector.summary)
        assert "costs" in hints
