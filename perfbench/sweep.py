"""The ``sweep`` workload: one ``run_specs`` list, cold then warm.

The list joins a Figure-7 ``db2`` server-size sweep (the six
``figure7.SCHEME_SPECS`` at four server sizes) and an ``indlru``
tournament slice on ``tpcc1`` (client ``lru``, server one of six
policies). The cold run fans out over ``jobs`` worker processes into an
empty result cache; the warm run serves the same list from that cache.

All times are seconds at the reference speed (spans and worker-side
wall times are scaled by the speed measured over the run that holds
them). The traced run drives the list serially so that spans installed
on the runner's public functions see every call: ``execute_spec``,
``materialize_trace`` and ``RunSpec.spec_hash`` are rebound for the
duration, and ``ResultCache`` is replaced by a factory returning a
:class:`~perfbench.harness.CacheProbe`.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path
from typing import Dict, List, Tuple

import repro.runner.executor as executor
from repro.experiments import tournament
from repro.experiments.figure7 import (
    BASELINE_REFS,
    CLIENT_BLOCKS,
    EXTRA_GEOMETRY,
    SCHEME_SPECS,
    server_sizes,
)
from repro.experiments.scaling import Scale
from repro.policies.registry import make_policy
from repro.runner import CostSpec, RunSpec, WorkloadSpec, run_specs
from repro.runner.spec import specs_for_sweep
from repro.sim.costs import paper_two_level
from repro.workloads import NUM_CLIENTS

from perfbench.harness import (
    CacheProbe,
    Outcome,
    Tracer,
    Window,
    median,
    patched,
)
from perfbench.speed import at_reference_speed, fastest

#: Half the Figure-7 ``bench`` preset's geometry, a sixteenth of the
#: baseline reference counts: a cold run takes a few seconds, so one
#: benchmark run holds several.
SCALE = Scale(name="perfbench", geometry=1 / 32, refs=1 / 16, sweep_points=4)
SERVER_POLICIES = ("arc", "2q", "lfu", "lirs", "mq", "s3fifo")
CLIENT_POLICY = "lru"
SETUP_REPEATS = 3
#: Warm runs after each cold run, so that they sample the whole run.
WARM_REPEATS = 25
PROBE_REPEATS = 5


def jobs() -> int:
    """Worker count: the CPUs this process may use, at least 2.

    With one worker ``run_specs`` runs inline and memoizes traces in
    this process, so later cold runs would skip trace generation.
    """
    return max(2, len(os.sched_getaffinity(0)))


def tournament_workload() -> WorkloadSpec:
    """The tournament slice's ``tpcc1`` trace (the ``large`` recipes
    take no seed, so this part is the same for every seed)."""
    return WorkloadSpec(
        "large",
        "tpcc1",
        {
            "scale": SCALE.geometry,
            "num_refs": SCALE.references(tournament.BASELINE_REFS["tpcc1"]),
        },
    )


def tournament_capacities() -> Tuple[int, int]:
    return (
        SCALE.blocks(tournament.CLIENT_BLOCKS_PAPER),
        SCALE.blocks(tournament.SERVER_BLOCKS_PAPER),
    )


def build_specs(seed: int) -> List[RunSpec]:
    costs = CostSpec.from_model(paper_two_level())
    clients = NUM_CLIENTS["db2"]
    geometry = SCALE.geometry * EXTRA_GEOMETRY["db2"]
    client_blocks = max(16, int(round(CLIENT_BLOCKS["db2"] * geometry)))
    db2 = WorkloadSpec(
        "multi",
        "db2",
        {
            "scale": geometry,
            "num_refs": SCALE.references(BASELINE_REFS["db2"]),
            "seed": seed,
        },
    )
    rows = specs_for_sweep(
        SCHEME_SPECS,
        db2,
        client_blocks,
        server_sizes(client_blocks, clients, SCALE.sweep_points),
        costs,
        num_clients=clients,
    )
    specs = [spec for _, _, spec in rows]
    for server in SERVER_POLICIES:
        specs.append(
            RunSpec(
                scheme="indlru",
                capacities=tournament_capacities(),
                workload=tournament_workload(),
                costs=costs,
                scheme_kwargs={"policies": [CLIENT_POLICY, server]},
            )
        )
    return specs


def setup(seed: int) -> Tuple[List[RunSpec], float]:
    times = [
        at_reference_speed(lambda: build_specs(seed))[0]
        for _ in range(SETUP_REPEATS)
    ]
    return build_specs(seed), median(times)


def comparable(results: List[object]) -> List[object]:
    return [result.comparable() for result in results]  # type: ignore[attr-defined]


def check_warm(
    out: Outcome, cold: List[object], warm: List[object], what: str
) -> None:
    """Warm results must equal the cold ones and come from the cache.

    A cached entry carries the wall time stamped when it was computed;
    a re-simulated spec would carry a fresh one.
    """
    out.check(comparable(warm) == comparable(cold), f"{what}: warm != cold")
    stamps_cold = [r.extras["wall_time_s"] for r in cold]  # type: ignore[attr-defined]
    stamps_warm = [r.extras["wall_time_s"] for r in warm]  # type: ignore[attr-defined]
    out.check(stamps_warm == stamps_cold, f"{what}: warm run re-simulated")


def fresh_dir(workdir: Path, name: str) -> Path:
    path = workdir / name
    shutil.rmtree(path, ignore_errors=True)
    return path


def warm_runs(
    specs: List[RunSpec], cache_dir: Path, workers: int, out: Outcome,
    cold: List[object], what: str,
) -> Tuple[List[float], List[float]]:
    """``WARM_REPEATS`` runs against the filled cache; returns their
    times at the reference speed and their wall times."""
    times: List[float] = []
    walls: List[float] = []
    for _ in range(WARM_REPEATS):
        seconds, wall, warm = at_reference_speed(
            lambda: run_specs(specs, jobs=workers, cache_dir=cache_dir)
        )
        out.op()
        check_warm(out, cold, warm, what)  # type: ignore[arg-type]
        times.append(seconds)
        walls.append(wall)
    return times, walls


def measure(
    workdir: Path, seed: int, seconds: float, out: Outcome
) -> Tuple[Dict[str, float], List[str]]:
    specs, setup_s = setup(seed)
    workers = jobs()
    cache_dir = fresh_dir(workdir, "cache")
    window = Window(seconds)
    colds: List[float] = []
    walls: List[float] = []
    warms: List[float] = []
    warm_walls: List[float] = []
    reference = None
    while window.more():
        target = cache_dir if reference is None else fresh_dir(workdir, "cold")
        seconds_at_reference, wall, results = at_reference_speed(
            lambda: run_specs(specs, jobs=workers, cache_dir=target),
            every_cpu=True,
        )
        out.op()
        if reference is None:
            reference = results
        else:
            out.check(
                comparable(results) == comparable(reference),  # type: ignore[arg-type]
                "sweep: cold runs disagree",
            )
        colds.append(seconds_at_reference)
        walls.append(wall)
        times, round_walls = warm_runs(
            specs, cache_dir, workers, out, reference, "sweep"  # type: ignore[arg-type]
        )
        warms.extend(times)
        warm_walls.extend(round_walls)
        window.done_round()
    metrics = {
        "op_s": median(colds),
        "fast_op_s": median(warms),
        "setup_s": setup_s,
    }
    notes = [
        f"sweep_cold_s {median(colds):.4f} s at the reference speed "
        f"({median(walls):.4f} s wall; median of {len(colds)} cold runs of "
        f"{len(specs)} specs, jobs={workers})",
        f"sweep_warm_s {median(warms):.6f} s at the reference speed "
        f"({median(warm_walls):.6f} s wall; median of {len(warms)} runs)",
    ]
    return metrics, notes


def policy_probes() -> Dict[str, float]:
    """Each grid policy alone over the tournament cell trace, minus an
    empty loop (fastest of ``PROBE_REPEATS`` passes)."""
    blocks = memoryview(tournament_workload().build().blocks)
    client, server = tournament_capacities()

    def drive(access: object) -> None:
        for block in blocks:
            access(block)  # type: ignore[operator]

    def empty() -> None:
        for _ in blocks:
            pass

    baseline = fastest(PROBE_REPEATS, empty)
    out: Dict[str, float] = {}
    for name in (CLIENT_POLICY,) + SERVER_POLICIES:
        capacity = client if name == CLIENT_POLICY else server
        out[f"policies.{name}.access_s"] = fastest(
            PROBE_REPEATS, lambda: drive(make_policy(name, capacity).access)
        ) - baseline
    return out


def percentile(values: List[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def trace(
    workdir: Path, seed: int, out: Outcome
) -> Tuple[Dict[str, float], List[str]]:
    specs, _ = setup(seed)
    workers = jobs()
    cache_dir = fresh_dir(workdir, "cache")
    cold_s, cold_wall, cold = at_reference_speed(
        lambda: run_specs(specs, jobs=workers, cache_dir=cache_dir),
        every_cpu=True,
    )
    out.op()
    untraced_warm = warm_runs(
        specs, cache_dir, workers, out, cold, "sweep untraced"  # type: ignore[arg-type]
    )[0]
    cells = [
        r.extras["wall_time_s"] * cold_s / cold_wall  # type: ignore[attr-defined]
        for r in cold
    ]

    tracer = Tracer()
    probes: List[CacheProbe] = []
    result_cache = executor.ResultCache

    def cache_factory(root: object) -> CacheProbe:
        probe = CacheProbe(result_cache(root), tracer)
        probes.append(probe)
        return probe

    serial_dir = fresh_dir(workdir, "serial")
    with patched(executor, "ResultCache", cache_factory), patched(
        executor, "execute_spec",
        tracer.wrap("runner.execute_spec", executor.execute_spec),
    ), patched(
        executor, "materialize_trace",
        tracer.wrap("runner.trace_build", executor.materialize_trace),
    ), patched(
        RunSpec, "spec_hash",
        tracer.wrap("runner.spec_hash", RunSpec.spec_hash),
    ):
        traced_cold_s, traced_cold_wall, traced_cold = at_reference_speed(
            lambda: run_specs(specs, jobs=1, cache_dir=serial_dir)
        )
        cold_spans = {
            name: seconds * traced_cold_s / traced_cold_wall
            for name, seconds in tracer.self_time.items()
        }
        cold_probe = probes[-1]
        tracer.reset()
        traced_warm, traced_warm_walls = warm_runs(
            specs, serial_dir, 1, out, traced_cold, "sweep traced"  # type: ignore[arg-type]
        )
        warm_scale = sum(traced_warm) / sum(traced_warm_walls)
        warm_spans = {
            name: seconds * warm_scale / WARM_REPEATS
            for name, seconds in tracer.self_time.items()
        }
    out.op()
    out.check(
        comparable(traced_cold) == comparable(cold),  # type: ignore[arg-type]
        "sweep: traced serial results differ from untraced parallel ones",
    )
    warm_gets = sum(probe.gets for probe in probes[1:])
    warm_hits = sum(probe.hits for probe in probes[1:])
    out.check(cold_probe.hits == 0, "sweep: cold run hit the cache")
    out.check(
        warm_hits == warm_gets == WARM_REPEATS * len(specs),
        "sweep: warm runs were not served entirely from the cache",
    )

    metrics: Dict[str, float] = {
        "runner.execute_spec_p50_s": percentile(cells, 0.5),
        "runner.execute_spec_p90_s": percentile(cells, 0.9),
        "runner.execute_spec_samples": float(len(cells)),
        "runner.parallel_efficiency": sum(cells) / (workers * cold_s),
        "runner.trace_build_s": cold_spans.get("runner.trace_build", 0.0),
        "runner.cache.put_s": cold_spans.get("runner.cache.put", 0.0),
        "runner.spec_hash_s": warm_spans.get("runner.spec_hash", 0.0),
        "runner.cache.get_s": warm_spans.get("runner.cache.get", 0.0),
        "runner.cache.hit_frac_cold": cold_probe.hits / cold_probe.gets,
        "runner.cache.hit_frac_warm": warm_hits / warm_gets,
        "trace_overhead_frac": median(traced_warm) / median(untraced_warm) - 1.0,
    }
    metrics.update(policy_probes())
    notes = [
        f"cold parallel run {cold_s:.3f}s at the reference speed over "
        f"{len(specs)} specs with jobs={workers}",
        f"traced serial cold {traced_cold_s:.3f}s; spans (self s): "
        + ", ".join(f"{k} {v:.4f}" for k, v in sorted(cold_spans.items())),
    ]
    return metrics, notes
