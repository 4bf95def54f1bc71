"""Tests of the benchmark's own machinery: the stub layers, the
forwarding proxies, the span accounting and the output contract."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.hierarchy.registry import make_scheme
from repro.runner import ResultCache
from repro.sim.costs import paper_three_level
from repro.sim.engine import Engine
from repro.workloads import save_columnar, zipf_trace

from perfbench import checkall, run, stream
from perfbench.harness import (
    NULL_EVENT,
    CacheProbe,
    HitRunProbe,
    NullCollector,
    NullScheme,
    Outcome,
    Tracer,
    null_access,
    patched,
    result_hash,
    unattributed,
)

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def small_ctr(tmp_path):
    trace = zipf_trace(300, 6000, alpha=1.0, seed=3, name="small")
    return trace, save_columnar(trace, tmp_path / "small.ctr")


def test_null_scheme_reports_one_constant_event():
    scheme = NullScheme([4, 4], 3)
    assert scheme.access(2, 17) is NULL_EVENT
    assert null_access(17, 2) is NULL_EVENT
    assert NULL_EVENT.hit_level == 1 and not NULL_EVENT.demotions


def test_null_drive_records_nothing(small_ctr):
    _, ctr = small_ctr
    collector = NullCollector(2)
    before = dict(vars(collector))
    returned = Engine(NullScheme([4, 4])).collect_stream(
        ctr, collector=collector
    )
    assert returned is collector
    assert vars(collector) == before


@pytest.mark.parametrize("batch_size", [None, 64])
def test_hit_run_probe_is_transparent(small_ctr, batch_size):
    trace, ctr = small_ctr

    def drive(scheme):
        engine = Engine(scheme, paper_three_level())
        return engine.drive_stream(ctr, batch_size=batch_size)

    bare = drive(make_scheme("ulc", [40, 40, 40]))
    probe = HitRunProbe(make_scheme("ulc", [40, 40, 40]))
    assert result_hash(drive(probe)) == result_hash(bare)
    if batch_size is None:
        assert probe.calls == 0
    else:
        assert probe.calls > 0
        assert 0 < probe.consumed <= len(trace)
        assert 0 <= probe.empty <= probe.calls
        assert probe.seconds > 0


def test_cache_probe_counts_hits_and_records_spans(tmp_path):
    from repro.runner import CostSpec, RunSpec, WorkloadSpec, run_specs

    spec = RunSpec(
        scheme="indlru",
        capacities=(8, 16),
        workload=WorkloadSpec(
            "synthetic", "zipf", {"num_blocks": 64, "num_refs": 500}
        ),
        costs=CostSpec((0.0, 1.0), 11.2, (1.0,)),
    )
    tracer = Tracer()
    probe = CacheProbe(ResultCache(tmp_path), tracer)
    assert probe.get(spec) is None
    result = run_specs([spec])[0]
    probe.put(spec, result)
    assert probe.get(spec).comparable() == result.comparable()
    assert (probe.gets, probe.hits) == (2, 1)
    assert tracer.calls == {"runner.cache.get": 2, "runner.cache.put": 1}
    assert probe.root == Path(tmp_path)


def test_tracer_self_times_add_up_to_the_root():
    tracer = Tracer()

    def leaf():
        return sum(range(20000))

    inner = tracer.wrap("inner", lambda: [leaf(), tracer.wrap("leaf", leaf)()])
    root = tracer.wrap("root", lambda: [inner(), tracer.wrap("leaf", leaf)()])
    root()
    assert tracer.calls == {"root": 1, "inner": 1, "leaf": 2}
    assert math.isclose(
        sum(tracer.self_time.values()), tracer.total["root"], rel_tol=1e-9
    )
    assert tracer.self_time["root"] < tracer.total["root"]


def test_patched_restores_the_attribute():
    class Target:
        value = 1

    with patched(Target, "value", 2):
        assert Target.value == 2
    assert Target.value == 1
    with pytest.raises(RuntimeError):
        with patched(Target, "value", 3):
            raise RuntimeError
    assert Target.value == 1


def test_unattributed_closes_the_sum():
    layers = {"a": 0.25, "b": 1.5}
    assert unattributed(2.0, layers) + sum(layers.values()) == 2.0


@pytest.mark.parametrize("case", sorted(stream.CASES))
def test_stream_layers_add_up_to_the_traced_wall(
    monkeypatch, tmp_path, case
):
    monkeypatch.setattr(stream, "NUM_REFS", 20000)
    out = Outcome()
    metrics, _ = stream.trace(stream.CASES[case], tmp_path, 5, out)
    assert out.correct and out.attempted > 0
    layers = [
        "workloads.io.ingest_s",
        "sim.engine.loop_s",
        "hierarchy.ulc.adapter_s",
        stream.CASES[case].core_metric,
        "sim.metrics.record_s",
    ]
    total = sum(metrics[name] for name in layers) + metrics["unattributed_s"]
    assert math.isclose(total, metrics["traced_wall_s"], rel_tol=1e-9)
    assert metrics["sim.engine.hit_run_calls"] > 0
    assert set(metrics) <= set(run.PER_LAYER)


def test_check_passes_add_up_to_the_traced_wall(tmp_path):
    (tmp_path / "module.py").write_text(
        "def twice(value):\n    return 2 * value\n"
    )
    out = Outcome()
    metrics, _ = checkall.trace(tmp_path, out)
    assert out.correct
    passes = sum(
        metrics[name] for name in
        ("checks.shallow_s", "checks.flow_s", "checks.kernel_s",
         "checks.bounds_s")
    )
    assert math.isclose(
        passes + metrics["unattributed_s"], metrics["traced_wall_s"],
        rel_tol=1e-9,
    )
    # Only the clock reads around the root span are left over.
    assert 0 <= metrics["unattributed_s"] < 0.01
    assert set(metrics) <= set(run.PER_LAYER)


def test_metric_tables_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == \
        run.PER_LAYER
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check-all",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert "{" not in completed.stdout
