"""Tests for the simulation engine, sweeps and result containers."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.hierarchy import IndependentScheme, ULCScheme, UnifiedLRUScheme
from repro.runner import SchemeSpec
from repro.sim import (
    Engine,
    RunResult,
    best_of,
    load_results,
    paper_three_level,
    paper_two_level,
    save_results,
    sweep_server_size,
)
from repro.workloads import Trace, looping_trace, zipf_trace


class TestEngine:
    def test_warmup_excluded_from_metrics(self):
        trace = Trace([1, 2, 3, 1, 1, 1, 1, 1, 1, 1])
        scheme = IndependentScheme([4, 4])
        result = Engine(
            scheme, paper_two_level(), warmup_fraction=0.3
        ).drive(trace)
        assert result.warmup_references == 3
        assert result.references == 7
        # All measured references hit the client cache.
        assert result.level_hit_rates[0] == pytest.approx(1.0)
        assert result.miss_rate == 0.0

    def test_zero_warmup(self):
        trace = Trace([1, 1])
        result = Engine(
            IndependentScheme([2, 2]), paper_two_level(), warmup_fraction=0.0
        ).drive(trace)
        assert result.references == 2
        assert result.miss_rate == pytest.approx(0.5)

    def test_invalid_warmup(self):
        with pytest.raises(ConfigurationError):
            Engine(
                IndependentScheme([2, 2]),
                paper_two_level(),
                warmup_fraction=2.0,
            ).drive(Trace([1]))

    def test_result_fields(self):
        trace = zipf_trace(50, 2000, seed=1)
        scheme = ULCScheme([8, 8, 8])
        result = Engine(scheme, paper_three_level()).drive(trace)
        assert result.scheme == "ULC"
        assert result.workload == "zipf"
        assert result.capacities == [8, 8, 8]
        assert len(result.level_hit_rates) == 3
        assert len(result.demotion_rates) == 2
        assert 0 <= result.miss_rate <= 1
        assert result.t_ave_ms >= 0
        assert result.t_ave_ms == pytest.approx(
            result.t_hit_ms
            + result.t_miss_ms
            + result.t_demotion_ms
            + result.t_message_ms
        )

    def test_run_with_collector(self):
        trace = Trace([1, 1, 2])
        metrics = Engine(
            IndependentScheme([2, 2]), warmup_fraction=0.0
        ).collect(trace)
        assert metrics.references == 3
        assert metrics.total_hit_rate == pytest.approx(1 / 3)

    def test_unilru_demotion_rate_on_loop_is_one(self):
        """End-to-end reproduction of the tpcc1 pathology: 100% boundary-1
        demotion rate for uniLRU on a loop spanning both levels."""
        trace = looping_trace(30, 3000)
        result = Engine(
            UnifiedLRUScheme([10, 25]), paper_two_level(), warmup_fraction=0.1
        ).drive(trace)
        assert result.demotion_rates[0] == pytest.approx(1.0)
        ulc = Engine(
            ULCScheme([10, 25], templru_capacity=0),
            paper_two_level(),
            warmup_fraction=0.1,
        ).drive(trace)
        assert ulc.demotion_rates[0] < 0.1
        assert ulc.t_ave_ms < result.t_ave_ms


class TestResultsIO:
    def test_roundtrip(self, tmp_path):
        trace = Trace([1, 2, 1, 2])
        result = Engine(
            IndependentScheme([1, 1]), paper_two_level(), warmup_fraction=0.0
        ).drive(trace)
        path = tmp_path / "results.json"
        save_results([result], path)
        loaded = load_results(path)
        assert len(loaded) == 1
        assert loaded[0].scheme == result.scheme
        assert loaded[0].t_ave_ms == pytest.approx(result.t_ave_ms)
        assert loaded[0].level_hit_rates == result.level_hit_rates

    def test_derived_properties(self):
        result = RunResult(
            scheme="x", workload="w", capacities=[1], num_clients=1,
            references=10, warmup_references=1,
            level_hit_rates=[0.5, 0.2], miss_rate=0.3,
            demotion_rates=[0.1], t_ave_ms=2.0, t_hit_ms=0.5,
            t_miss_ms=1.0, t_demotion_ms=0.5,
        )
        assert result.total_hit_rate == pytest.approx(0.7)
        assert result.demotion_fraction_of_time == pytest.approx(0.25)


class TestSweep:
    def test_sweep_runs_every_point(self):
        trace = zipf_trace(60, 3000, seed=2)
        builders = {
            "indLRU": SchemeSpec("indlru"),
            "ULC": SchemeSpec("ulc", {"templru_capacity": 0}),
        }
        series = sweep_server_size(
            builders, trace, client_capacity=8,
            server_sizes=[8, 16], costs=paper_two_level(),
        )
        assert set(series) == {"indLRU", "ULC"}
        assert [p.value for p in series["ULC"]] == [8, 16]
        # A bigger server can only help (monotone non-increasing T_ave,
        # up to noise; assert the trend loosely).
        for label in series:
            t_small = series[label][0].result.t_ave_ms
            t_large = series[label][1].result.t_ave_ms
            assert t_large <= t_small + 0.5

    def test_best_of_selects_minimum(self):
        trace = zipf_trace(60, 2000, seed=3)
        builders = {
            "a": SchemeSpec("indlru"),
            "b": SchemeSpec("ulc", {"templru_capacity": 0}),
        }
        series = sweep_server_size(
            builders, trace, 8, [8], paper_two_level()
        )
        best = best_of(series)
        assert len(best) == 1
        assert best[0].result.t_ave_ms == min(
            series["a"][0].result.t_ave_ms, series["b"][0].result.t_ave_ms
        )

    def test_best_of_empty(self):
        assert best_of({}) == []

    def test_callable_builders_rejected(self):
        with pytest.raises(TypeError, match="SchemeSpec"):
            sweep_server_size(
                {"ULC": lambda caps: ULCScheme(caps)},
                zipf_trace(60, 500, seed=1), 8, [8], paper_two_level(),
            )
