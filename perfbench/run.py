"""End-to-end benchmark of the ULC simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload stream-single --seed 1 \
        --seconds 20 --trace 0

``--workload`` is one of ``stream-single``, ``stream-multi``, ``sweep``,
``check-all``, or ``all`` (each workload in turn, in its own process).
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes a
separate traced run for the per-layer metrics. Human-readable lines go
to standard output first; the last line is one JSON object::

    {"correct": true, "attempted": 9, "failed": 0,
     "metrics": {"op_s": {"value": 2.91, "unit": "s"}, ...}}

``op_s`` times each workload's main operation and ``fast_op_s`` the
same job by its fast path:

==============  ==============================  ===========================
workload        ``op_s``                        ``fast_op_s``
==============  ==============================  ===========================
stream-*        scalar ``drive_stream``         ``batch_size=1024`` drive
sweep           cold ``run_specs``              warm ``run_specs`` (cached)
check-all       ``run_checks``, all four passes  shallow ``run_checks``
==============  ==============================  ===========================

Each is the median over the run's repeats, in seconds at the reference
speed (see :func:`perfbench.speed.at_reference_speed`); the wall-clock
figures, and ``refs_per_s`` for the stream workloads, are printed on the
human-readable lines.

Every run checks the program's outputs (see each workload's module)
and exits 1 when a check fails, 2 when the program cannot be found.
Inputs are generated from ``--seed`` into a working directory under the
repository root (``.perfbench_work``) that is removed on exit.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "repro"
WORKLOADS = ("stream-single", "stream-multi", "sweep", "check-all")
MODULES = {
    "stream-single": "perfbench.stream",
    "stream-multi": "perfbench.stream",
    "sweep": "perfbench.sweep",
    "check-all": "perfbench.checkall",
}
DEFAULT_SEED = 1

#: End-to-end metrics, printed by every untraced run. ``op_s`` is the
#: workload's main operation, ``fast_op_s`` the same job by its fast
#: path (see BENCHMARK.json for each workload's pair).
END_TO_END = {
    "op_s": "s",
    "fast_op_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

#: Per-layer metrics, printed by every traced run. A layer the workload
#: never enters reads 0.
PER_LAYER = {
    "workloads.io.ingest_s": "s",
    "sim.engine.loop_s": "s",
    "sim.metrics.record_s": "s",
    "hierarchy.ulc.adapter_s": "s",
    "core.protocol.access_s": "s",
    "core.multi.access_s": "s",
    "traced_wall_s": "s",
    "unattributed_s": "s",
    "sim.engine.hit_run_s": "s",
    "sim.engine.hit_run_calls": "count",
    "sim.engine.hit_run_consumed_frac": "frac",
    "sim.engine.hit_run_empty_frac": "frac",
    "core.l1_hit_rate": "frac",
    "core.miss_rate": "frac",
    "core.demotions_per_ref": "1/ref",
    "core.evictions_per_ref": "1/ref",
    "core.temp_hits_per_ref": "1/ref",
    "core.control_messages_per_ref": "1/ref",
    "runner.execute_spec_p50_s": "s",
    "runner.execute_spec_p90_s": "s",
    "runner.execute_spec_samples": "count",
    "runner.parallel_efficiency": "frac",
    "runner.trace_build_s": "s",
    "runner.spec_hash_s": "s",
    "runner.cache.get_s": "s",
    "runner.cache.put_s": "s",
    "runner.cache.hit_frac_cold": "frac",
    "runner.cache.hit_frac_warm": "frac",
    "policies.lru.access_s": "s",
    "policies.arc.access_s": "s",
    "policies.2q.access_s": "s",
    "policies.lfu.access_s": "s",
    "policies.lirs.access_s": "s",
    "policies.mq.access_s": "s",
    "policies.s3fifo.access_s": "s",
    "checks.shallow_s": "s",
    "checks.flow_s": "s",
    "checks.kernel_s": "s",
    "checks.bounds_s": "s",
    "checks.findings": "count",
    "trace_overhead_frac": "frac",
}


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=WORKLOADS + ("all",)
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(args: argparse.Namespace, workdir: Path) -> int:
    from perfbench.speed import at_reference_speed

    import_s, _, module = at_reference_speed(
        lambda: importlib.import_module(MODULES[args.workload])
    )
    from perfbench.harness import Outcome

    out = Outcome()
    if args.workload.startswith("stream-"):
        case = module.CASES[args.workload]
        if args.trace:
            metrics, notes = module.trace(case, workdir, args.seed, out)
        else:
            metrics, notes = module.measure(
                case, workdir, args.seed, args.seconds, out
            )
    elif args.workload == "sweep":
        if args.trace:
            metrics, notes = module.trace(workdir, args.seed, out)
        else:
            metrics, notes = module.measure(
                workdir, args.seed, args.seconds, out
            )
    elif args.trace:
        metrics, notes = module.trace(SOURCE, out)
    else:
        metrics, notes = module.measure(SOURCE, args.seconds, out)

    if args.trace:
        table = PER_LAYER
    else:
        table = END_TO_END
        metrics["setup_s"] += import_s
        metrics["peak_rss_mib"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
    unknown = sorted(set(metrics) - set(table))
    if unknown:
        raise RuntimeError(f"metrics missing from the tables: {unknown}")
    report = {name: metrics.get(name, 0.0) for name in table}

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for name, value in report.items():
        print(f"  {name:36s} {value:.6g} {table[name]}")
    print(json.dumps({
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": value, "unit": table[name]}
            for name, value in report.items()
        },
    }))
    return 0 if out.correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a process of its own, so that set-up time and
    peak memory are its own; the last line sums the outcomes."""
    totals: Dict[str, object] = {
        "correct": True, "attempted": 0, "failed": 0, "metrics": {}
    }
    status = 0
    for workload in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = completed.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = status or completed.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            return completed.returncode or 1
        totals["correct"] = totals["correct"] and result["correct"]
        totals["attempted"] += result["attempted"]  # type: ignore[operator]
        totals["failed"] += result["failed"]  # type: ignore[operator]
        for name, metric in result["metrics"].items():
            totals["metrics"][f"{workload}/{name}"] = metric  # type: ignore[index]
    print(json.dumps(totals))
    return status


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not SOURCE.is_dir():
        print(f"error: no program source at {SOURCE}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
