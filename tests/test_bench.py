"""The ``repro bench`` gates: speedup ratios, regressions, bad input."""

from __future__ import annotations

import json

import pytest

from repro import bench
from repro.cli import main


def rates(**refs_per_s):
    return {
        name: {"refs": 1000, "wall_time_s": 1.0, "refs_per_s": rate}
        for name, rate in refs_per_s.items()
    }


class TestSpeedupGate:
    BASELINE = rates(lru_access_throughput=100_000.0)

    def test_below_five_times_the_baseline_fails(self):
        current = rates(
            lru_access_throughput=60_000.0,
            lru_access_throughput_batched=490_000.0,
        )
        failures = bench.find_speedup_failures(current, self.BASELINE)
        assert len(failures) == 1
        assert failures[0].startswith("lru_access_throughput_batched:")
        assert "4.9x" in failures[0]

    def test_above_five_times_the_baseline_passes(self):
        current = rates(
            lru_access_throughput=60_000.0,
            lru_access_throughput_batched=510_000.0,
        )
        assert bench.find_speedup_failures(current, self.BASELINE) == []

    def test_current_rate_stands_in_for_a_missing_baseline_entry(self):
        current = rates(
            lru_access_throughput=100_000.0,
            lru_access_throughput_batched=490_000.0,
        )
        baseline = rates(mrc_stack_distances=1.0)
        assert len(bench.find_speedup_failures(current, baseline)) == 1
        assert len(bench.find_speedup_failures(current, None)) == 1
        current["lru_access_throughput"]["refs_per_s"] = 90_000.0
        assert bench.find_speedup_failures(current, baseline) == []


class TestRegressions:
    def test_scenario_missing_from_the_baseline_is_skipped(self):
        current = rates(new_scenario=1.0, lru_access_throughput=100.0)
        previous = rates(lru_access_throughput=100.0)
        assert bench.find_regressions(current, previous, 0.30) == []

    def test_drop_beyond_the_threshold_is_flagged(self):
        previous = rates(a=100.0, b=100.0)
        current = rates(a=71.0, b=69.0)
        messages = bench.find_regressions(current, previous, 0.30)
        assert len(messages) == 1
        assert messages[0].startswith("b:")


class TestBenchCommand:
    @pytest.fixture
    def stub_suite(self, monkeypatch):
        monkeypatch.setattr(
            bench, "run_suite",
            lambda *args: rates(lru_access_throughput=100_000.0),
        )

    @pytest.mark.parametrize(
        "content", ["{not json", "[1, 2]", '{"benchmarks": "oops"}'],
        ids=["not-json", "not-an-object", "no-benchmarks-object"],
    )
    def test_corrupt_baseline_exits_2(
        self, tmp_path, capsys, stub_suite, content
    ):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(content)
        code = main([
            "bench", "--smoke", "--baseline", str(baseline),
            "--output", str(tmp_path / "out.json"),
        ])
        assert code == 2
        assert str(baseline) in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    def test_absent_baseline_runs_without_a_regression_check(
        self, tmp_path, capsys, stub_suite
    ):
        output = tmp_path / "out.json"
        code = main([
            "bench", "--smoke", "--baseline", str(tmp_path / "none.json"),
            "--output", str(output),
        ])
        assert code == 0
        assert "no regression beyond" not in capsys.readouterr().out
        payload = json.loads(output.read_text())
        assert "previous" not in payload
        assert payload["benchmarks"]["lru_access_throughput"][
            "refs_per_s"
        ] == 100_000.0

    @pytest.mark.parametrize("batch_size", ["0", "-4"])
    def test_bad_batch_size_exits_2(self, tmp_path, capsys, batch_size):
        code = main([
            "bench", "--smoke", "--batch-size", batch_size,
            "--baseline", str(tmp_path / "none.json"),
            "--output", str(tmp_path / "out.json"),
        ])
        assert code == 2
        assert "batch_size must be >= 1" in capsys.readouterr().err
