"""Tests of the scripts: scripts/run_paper_scale.py (run at tiny scale),
scripts/bench_pairs.py and scripts/policy_pairs.py."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def test_run_paper_scale_script(tmp_path):
    result = subprocess.run(
        [
            sys.executable,
            str(REPO / "scripts" / "run_paper_scale.py"),
            "--scale",
            "tiny",
            "--out",
            str(tmp_path),
        ],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    for name in [
        "figure2.txt",
        "figure3.txt",
        "table1.txt",
        "figure6.txt",
        "figure6.json",
        "figure6_reductions.txt",
        "figure7.txt",
        "figure7.json",
        "ablations.txt",
        "report.txt",
    ]:
        path = tmp_path / name
        assert path.exists(), f"missing {name}"
        assert path.stat().st_size > 0, f"empty {name}"
    report = (tmp_path / "report.txt").read_text()
    assert "Figure 2" in report
    assert "Table 1" in report
    assert "Figure 6a" in report
    assert "Figure 7" in report


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", REPO / "scripts" / "bench_pairs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchPairsVerdict:
    """The verdict arithmetic of scripts/bench_pairs.py on fixed runs."""

    BASE = [2.94, 2.85, 2.97, 2.90, 3.00, 2.88, 2.95, 2.92, 2.99, 2.86]

    def test_quartiles_inclusive(self, bench_pairs):
        assert bench_pairs.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == (
            2.0, 3.0, 4.0
        )
        assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)

    def test_clear_gain(self, bench_pairs):
        change = [value - 0.7 for value in self.BASE]
        result = bench_pairs.verdict(self.BASE, change, "lower", 0.2)
        assert result["wins"] == 10
        assert result["gain"] is True
        assert result["bound"] == "held"
        assert result["relative"] == pytest.approx(-0.7 / 2.93, abs=1e-3)

    def test_eight_wins_is_not_a_gain(self, bench_pairs):
        change = [value - 0.7 for value in self.BASE]
        change[0] = change[1] = 3.5
        result = bench_pairs.verdict(self.BASE, change, "lower", 0.2)
        assert result["wins"] == 8
        assert result["gain"] is False

    def test_gap_inside_the_base_iqr_is_not_a_gain(self, bench_pairs):
        # Every pair won by 0.01, but the base IQR is about 0.08.
        change = [value - 0.01 for value in self.BASE]
        result = bench_pairs.verdict(self.BASE, change, "lower", 0.2)
        assert result["wins"] == 10
        assert result["gain"] is False

    def test_ties_count_for_neither_side(self, bench_pairs):
        result = bench_pairs.verdict(self.BASE, self.BASE, "lower", 0.2)
        assert result["wins"] == 0
        assert result["bound"] == "held"

    def test_bound_exceeded(self, bench_pairs):
        change = [value * 1.3 for value in self.BASE]
        result = bench_pairs.verdict(self.BASE, change, "lower", 0.2)
        assert result["bound"] == "exceeded"
        assert bench_pairs.verdict(
            self.BASE, change, "lower", 0.35
        )["bound"] == "held"

    def test_spread_wider_than_the_bound_is_unresolved(self, bench_pairs):
        base = [1.0, 1.5, 2.0, 1.2, 1.8]
        change = [1.1, 1.4, 2.1, 1.3, 1.7]
        result = bench_pairs.verdict(base, change, "lower", 0.1)
        assert result["bound"] == "unresolved"
        # ...unless every change run beats every base run.
        faster = [0.5, 0.6, 0.7, 0.8, 0.9]
        assert bench_pairs.verdict(
            base, faster, "lower", 0.1
        )["bound"] == "held"

    def test_higher_is_better(self, bench_pairs):
        base = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
        higher = [value + 2 for value in base]
        result = bench_pairs.verdict(base, higher, "higher", 0.1)
        assert result["wins"] == 10
        assert result["gain"] is True
        lower = [value * 0.8 for value in base]
        assert bench_pairs.verdict(
            base, lower, "higher", 0.1
        )["bound"] == "exceeded"


def test_bench_pairs_smoke_head_against_head():
    """One 1-second pair of HEAD against the working tree."""
    if subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True
    ).returncode:
        pytest.skip("not a git checkout")
    result = subprocess.run(
        [
            sys.executable,
            str(REPO / "scripts" / "bench_pairs.py"),
            "--base", "HEAD",
            "--workload", "stream-single",
            "--pairs", "1",
            "--seconds", "1",
        ],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
    assert "pair 1 (base first)" in result.stdout
    for name in ("op_s", "fast_op_s", "setup_s", "peak_rss_mib"):
        assert f"  {name} (" in result.stdout
    assert "change wins" in result.stdout


def test_policy_pairs_smoke_head_against_head():
    """One pair of HEAD against the working tree on a tiny trace."""
    if subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True
    ).returncode:
        pytest.skip("not a git checkout")
    result = subprocess.run(
        [
            sys.executable,
            str(REPO / "scripts" / "policy_pairs.py"),
            "--base", "HEAD",
            "--policies", "lru", "mq",
            "--pairs", "2",
            "--capacity", "16",
            "--refs", "500",
        ],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
    assert "pair 1 (base first)" in result.stdout
    assert "pair 2 (change first)" in result.stdout
    for name in ("lru", "mq"):
        assert f"  {name}: base " in result.stdout
    assert "change wins" in result.stdout


def test_compare_cache_dirs(tmp_path, capsys):
    """Checked and unchecked runs fill two caches with the same results;
    an edited or a missing entry is reported."""
    import json

    from repro.runner import CostSpec, RunSpec, WorkloadSpec, run_specs

    spec = importlib.util.spec_from_file_location(
        "compare_cache_dirs", REPO / "scripts" / "compare_cache_dirs.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    specs = [
        RunSpec(
            scheme="ulc",
            capacities=capacities,
            workload=WorkloadSpec(
                "multi", "httpd", {"scale": 0.02, "num_refs": 2000}
            ),
            costs=CostSpec((0.0, 1.0), 11.2, (1.0,)),
            num_clients=7,
        )
        for capacities in ((8, 32), (16, 32))
    ]
    checked, unchecked = tmp_path / "checked", tmp_path / "unchecked"
    run_specs(specs, cache_dir=checked, check_invariants=50)
    run_specs(specs, cache_dir=unchecked)
    assert script.main([str(checked), str(unchecked)]) == 0
    assert "2 entries compared: identical" in capsys.readouterr().out

    first, second = sorted(unchecked.glob("*/*.json"))
    payload = json.loads(first.read_text())
    payload["result"]["miss_rate"] += 1e-12
    first.write_text(json.dumps(payload))
    second.unlink()
    assert script.main([str(checked), str(unchecked)]) == 1
    out = capsys.readouterr().out
    assert f"results differ: {first.stem}" in out
    assert f"only in {checked}: {second.stem}" in out
    assert script.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
