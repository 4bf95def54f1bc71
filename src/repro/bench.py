"""Headless core-ops benchmark harness (the ``repro bench`` command).

Runs the :mod:`benchmarks.bench_core_ops` scenarios without pytest —
ULC single-client throughput at several cache sizes, the plain-LRU
baseline, and the multi-client end-to-end system — then writes the
results to ``BENCH_core_ops.json`` and compares them against the
previous run of the same file.

The JSON document carries, per benchmark, the best-of-``rounds``
wall time and the derived references/second, plus the git revision the
numbers were measured at. When a previous document exists (either the
output file itself or an explicit ``--baseline``), any benchmark whose
refs/s dropped by more than the regression threshold (default 30%)
is reported and the command exits non-zero — this is what the CI
bench-smoke job gates on.

Scenario parameters deliberately mirror ``benchmarks/bench_core_ops.py``
so the two harnesses measure the same thing; traces are built once
outside the timed region and fed as memoryviews (per-element Python
ints, no bulk list conversion), so the clock sees the engines only.
"""

from __future__ import annotations

import gc
import json
import subprocess
import time  # repro: noqa DET001 -- wall-clock benchmark timing, not simulation state
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.core import ULCClient, ULCMultiSystem
from repro.errors import ConfigurationError
from repro.hierarchy import IndependentScheme, ULCScheme
from repro.policies import LRUPolicy
from repro.sim import Engine
from repro.workloads import zipf_trace

#: Suite identifier stamped into the JSON document.
SUITE = "core_ops"
#: Default output (and implicit baseline) file.
DEFAULT_OUTPUT = "BENCH_core_ops.json"
#: Default allowed refs/s drop before the run is called a regression.
DEFAULT_THRESHOLD = 0.30
#: References per scenario for a full run / a ``--smoke`` run.
FULL_REFS = 20_000
SMOKE_REFS = 4_000
#: Timed repetitions (best-of) for a full run / a ``--smoke`` run.
FULL_ROUNDS = 3
SMOKE_ROUNDS = 2
#: Warm-up time above which timed rounds start after a full collection.
COLLECT_ABOVE_S = 0.1

Refs = Iterable[int]
BenchResult = Dict[str, float]


# repro: hot
def _drive_ulc(capacity_per_level: int, refs: Refs) -> None:
    engine = ULCClient([capacity_per_level] * 3)
    access = engine.access
    for block in refs:
        access(block)


# repro: hot
def _drive_lru(refs: Refs) -> None:
    policy = LRUPolicy(3072)
    access = policy.access
    for block in refs:
        access(block)


# repro: hot
def _drive_multi(refs: Refs) -> None:
    system = ULCMultiSystem(8, client_capacity=128, server_capacity=2048)
    access = system.access
    index = 0
    for block in refs:
        access(index % 8, block)
        index += 1


#: ``batch_size`` of the batched scenarios (the batch-size guidance in
#: docs/performance.md).
BATCH_SIZE = 1024

#: Working-set sizes of the batched scenarios' zipf traces. The batched
#: twins measure the *steady-state all-hit fast path* — the case the
#: hit-run kernels serve — so their working sets fit the cache and
#: the schemes are warmed outside the timed region (cold fills are
#: scalar inserts in both drive modes and already measured by the
#: single-step scenarios).
LRU_BATCHED_UNIVERSE = 2048
ULC_BATCHED_UNIVERSE = 512


#: Server sizes of the sweep-speedup scenarios: 16 points, the scale the
#: tentpole's ≥5x acceptance criterion is measured at.
SWEEP_SIZES = tuple(128 * (i + 1) for i in range(16))
SWEEP_CLIENT_BLOCKS = 256


def _drive_sweep(trace, use_mrc: Optional[bool]) -> None:
    """A 16-point uniLRU server-size sweep, point-simulated or derived
    from one MRC pass — the pair documents the single-pass speedup."""
    from repro.runner.spec import SchemeSpec
    from repro.sim import paper_two_level
    from repro.sim.sweep import sweep_server_size

    sweep_server_size(
        {"uniLRU": SchemeSpec("unilru")},
        trace,
        SWEEP_CLIENT_BLOCKS,
        list(SWEEP_SIZES),
        paper_two_level(),
        use_mrc=use_mrc,
    )


def _drive_profile(trace) -> None:
    from repro.analysis.mrc import stack_distances

    stack_distances(trace.blocks)


#: References of the approximate-MRC and streaming scenarios. Fixed —
#: not scaled by ``--smoke`` — because their point is the *ratio*
#: against exact Mattson (the ``mrc_shards`` >= 20x gate): at smoke
#: reference counts the sampled passes are all fixed overhead and the
#: ratio is meaningless.
MRC_REFS = 200_000
#: Universe and skew of the approximate-MRC scenarios' zipf trace.
#: Deliberately well-conditioned for spatial sampling: SHARDS' work (and
#: error) is bounded by the reference mass of the sampled *blocks*, so a
#: trace whose hottest block carries percent-level mass would make the
#: sampled substream several times larger than the nominal rate whenever
#: that block hashes into the sample (see docs/performance.md,
#: "Approximate miss-ratio curves"). alpha=0.8 over 2^20 blocks keeps
#: every block's mass ~1e-4.
MRC_UNIVERSE = 1 << 20
MRC_ALPHA = 0.8
MRC_SEED = 42
#: Sampling rate of the approximate-MRC scenarios.
MRC_RATE = 0.01


def _drive_shards(trace) -> None:
    from repro.analysis.approx import shards_mrc

    shards_mrc(trace, rate=MRC_RATE)


def _drive_aet(trace) -> None:
    from repro.analysis.approx import aet_mrc

    aet_mrc(trace, rate=MRC_RATE)


def _drive_stream_scan(path: str) -> None:
    """Full chunk-wise scan of an on-disk columnar trace: mmap page-in
    plus one vector reduction per chunk — the floor any streaming
    consumer (profiler or engine) pays per reference."""
    from repro.workloads.io import ColumnarTrace

    total = 0
    for chunk in ColumnarTrace(path).chunks():
        total += int(chunk.blocks.sum())


#: References processed by the tournament smoke scenario: 4 cells at
#: the tiny scale's 2000-reference zipf trace.
TOURNAMENT_SMOKE_REFS = 4 * 2000


def _drive_tournament() -> None:
    """One small tournament grid (2x2 client/server policies over the
    tiny zipf workload) through the RunSpec executor — the end-to-end
    composed-hierarchy path the ``repro tournament --smoke`` CI job
    exercises, minus the rendering."""
    from repro.experiments import run_tournament

    run_tournament(
        "tiny",
        client_policies=("lru", "s3fifo"),
        server_policies=("mq", "wtinylfu"),
        workloads=("zipf",),
    )


def _drive_kernel_check() -> None:
    """One kernel (slot-typestate) pass over the installed package, so
    the smoke gate also guards the static-analysis latency developers
    and CI pay on every ``make check``."""
    from pathlib import Path

    import repro
    from repro.checks.kernel import run_kernel_checks

    run_kernel_checks([Path(repro.__file__).resolve().parent])


def _drive_bounds_check() -> None:
    """One bounds (hot-path cost) pass over the installed package —
    the abstract cost interpreter walks every function reachable from
    the hot entry points, so its latency scales with the tree and is
    worth gating alongside the kernel pass."""
    from pathlib import Path

    import repro
    from repro.checks.bounds import run_bounds_checks

    run_bounds_checks([Path(repro.__file__).resolve().parent])


def _scenarios(
    num_refs: int, batch_size: int = BATCH_SIZE
) -> List[Tuple[str, Callable[[], None], int]]:
    """Build the benchmark scenarios with their traces pre-materialised.

    Each entry is ``(name, drive, refs)`` — ``refs`` is the reference
    count the scenario actually processes per round (most scale with
    ``num_refs``; the approximate-MRC/streaming scenarios are pinned at
    :data:`MRC_REFS`), and is what ``refs_per_s`` is derived from.
    """
    scenarios: List[Tuple[str, Callable[[], None], int]] = []
    for capacity in (256, 1024, 4096):
        refs = memoryview(zipf_trace(capacity * 8, num_refs, seed=1).blocks)
        scenarios.append((
            f"ulc_access_throughput[{capacity}]",
            lambda c=capacity, r=refs: _drive_ulc(c, r),
            num_refs,
        ))
    lru_refs = memoryview(zipf_trace(8192, num_refs, seed=1).blocks)
    scenarios.append(
        ("lru_access_throughput", lambda: _drive_lru(lru_refs), num_refs)
    )
    # Batched twins of the single-step engines above, measuring the
    # steady-state all-hit fast path (see LRU_BATCHED_UNIVERSE) through
    # the drive users run, Engine.collect(batch_size=...): the scheme is
    # warmed outside the timed region (which also validates batch_size),
    # and every timed round replays the same all-resident trace. The
    # ratio gate in :func:`run_bench` holds lru_access_throughput_batched
    # to >= 5x the committed single-step lru_access_throughput. Trace
    # length is pinned at FULL_REFS rather than smoke-scaled: at a few
    # probes per round the per-call overhead dominates and the smoke
    # numbers would undershoot a full-length committed baseline.
    for name, scheme, universe in (
        ("lru_access_throughput_batched", IndependentScheme([3072]),
         LRU_BATCHED_UNIVERSE),
        ("ulc_access_throughput_batched[1024]", ULCScheme([1024] * 3),
         ULC_BATCHED_UNIVERSE),
    ):
        engine = Engine(scheme)
        trace = zipf_trace(universe, FULL_REFS, seed=1)
        engine.collect(trace, batch_size=batch_size)
        scenarios.append((
            name,
            lambda e=engine, t=trace: e.collect(t, batch_size=batch_size),
            FULL_REFS,
        ))
    multi_refs = memoryview(zipf_trace(8192, num_refs, seed=2).blocks)
    scenarios.append(
        ("multi_client_throughput", lambda: _drive_multi(multi_refs), num_refs)
    )
    sweep_trace = zipf_trace(8192, num_refs, seed=3)
    scenarios.append((
        "sweep16_point[unilru]",
        lambda: _drive_sweep(sweep_trace, False),
        num_refs,
    ))
    scenarios.append(
        ("sweep16_mrc[unilru]", lambda: _drive_sweep(sweep_trace, None), num_refs)
    )
    scenarios.append(
        ("mrc_stack_distances", lambda: _drive_profile(sweep_trace), num_refs)
    )
    # Approximate-MRC and streaming scenarios share one MRC_REFS-reference
    # trace (fixed size, see MRC_REFS above). mrc_shards is held to >= 20x
    # the committed mrc_stack_distances refs/s by the SPEEDUP_GATES ratio
    # check — the tentpole speedup claim, continuously measured.
    mrc_trace = zipf_trace(MRC_UNIVERSE, MRC_REFS, alpha=MRC_ALPHA, seed=MRC_SEED)
    scenarios.append(
        ("mrc_shards", lambda: _drive_shards(mrc_trace), MRC_REFS)
    )
    scenarios.append(("mrc_aet", lambda: _drive_aet(mrc_trace), MRC_REFS))
    from tempfile import TemporaryDirectory

    from repro.workloads.io import save_columnar

    scratch = TemporaryDirectory(prefix="repro-bench-")
    columnar_path = str(Path(scratch.name) / "mrc_trace.ctr")
    save_columnar(mrc_trace, columnar_path)
    scenarios.append((
        "trace_stream_scan",
        # The default-arg reference keeps the TemporaryDirectory alive
        # (and the .ctr on disk) for the lifetime of the scenario list.
        lambda _scratch=scratch: _drive_stream_scan(columnar_path),
        MRC_REFS,
    ))
    # The checker pass does fixed work (one walk of the installed
    # package) regardless of suite scale; a nominal fixed refs count
    # keeps its refs/s comparable between --smoke runs and the
    # full-length committed baseline.
    scenarios.append(
        ("tournament_smoke", _drive_tournament, TOURNAMENT_SMOKE_REFS)
    )
    scenarios.append(("check_kernel_pass", _drive_kernel_check, FULL_REFS))
    scenarios.append(("check_bounds_pass", _drive_bounds_check, FULL_REFS))
    return scenarios


def run_suite(
    num_refs: int = FULL_REFS,
    rounds: int = FULL_ROUNDS,
    batch_size: int = BATCH_SIZE,
) -> Dict[str, BenchResult]:
    """Time every scenario; best-of-``rounds`` wall time per scenario.

    Each scenario gets one untimed warm-up invocation first: early in a
    short (``--smoke``) process the CPU clock and caches are still
    ramping, and without the warm-up the first scenarios reproducibly
    undershoot a baseline recorded by a long full-length run. A scenario
    whose warm-up takes over ``COLLECT_ABOVE_S`` gets ``gc.collect()``
    before each timed round, outside the timer, so a round does not
    collect the previous call's cyclic garbage (a check pass leaves a
    whole ``Project``). Shorter ones get none: the collection also
    flushes the caches, which cost the millisecond ``trace_stream_scan``
    a third of its rate.
    """
    results: Dict[str, BenchResult] = {}
    for name, drive, scenario_refs in _scenarios(num_refs, batch_size):
        started = time.perf_counter()
        drive()
        collect = time.perf_counter() - started > COLLECT_ABOVE_S
        best = float("inf")
        for _ in range(max(1, rounds)):
            if collect:
                gc.collect()
            started = time.perf_counter()
            drive()
            elapsed = time.perf_counter() - started
            if elapsed < best:
                best = elapsed
        results[name] = {
            "refs": scenario_refs,
            "wall_time_s": round(best, 6),
            "refs_per_s": round(scenario_refs / best, 1),
        }
    return results


def _git(*args: str) -> Optional[str]:
    """Run one git query in the package directory; ``None`` on failure."""
    try:
        proc = subprocess.run(
            ["git", *args],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip()


def git_rev() -> str:
    """Short git revision of the working tree, or ``"unknown"``."""
    rev = _git("rev-parse", "--short", "HEAD")
    return rev if rev else "unknown"


def git_state() -> Dict[str, object]:
    """Provenance of the measured tree: revision, dirty flag, parent.

    ``git_dirty`` records whether tracked files had uncommitted changes
    when the numbers were taken (a dirty tree means the committed
    ``git_rev`` does not fully identify the measured code), and
    ``git_parent_rev`` pins where the measured commit sits in history
    even after a rebase rewrites it.
    """
    status = _git("status", "--porcelain", "--untracked-files=no")
    parent = _git("rev-parse", "--short", "HEAD^")
    return {
        "git_rev": git_rev(),
        "git_dirty": bool(status) if status is not None else False,
        "git_parent_rev": parent if parent else "unknown",
    }


def find_regressions(
    current: Dict[str, BenchResult],
    previous: Dict[str, BenchResult],
    threshold: float,
) -> List[str]:
    """Benchmarks whose refs/s dropped by more than ``threshold``.

    Benchmarks present on only one side are ignored (new scenarios are
    not regressions; removed ones cannot be compared).
    """
    messages: List[str] = []
    for name, entry in current.items():
        old = previous.get(name)
        if not isinstance(old, dict):
            continue
        old_rate = old.get("refs_per_s")
        new_rate = entry.get("refs_per_s")
        if not old_rate or not new_rate:
            continue
        if new_rate < old_rate * (1.0 - threshold):
            drop = 1.0 - new_rate / old_rate
            messages.append(
                f"{name}: {new_rate:,.0f} refs/s vs previous "
                f"{old_rate:,.0f} (-{drop:.0%}, threshold {threshold:.0%})"
            )
    return messages


#: Fast scenarios gated against their committed slow twin:
#: ``(fast name, slow name, minimum refs/s ratio)``. The slow rate
#: comes from the *baseline* document (the committed numbers) so a
#: uniformly slow machine still measures the speedup the fast path
#: claims; without a baseline the current run's own slow rate stands
#: in. The mrc_shards gate is the tentpole's >= 20x-over-exact-Mattson
#: claim (docs/performance.md, "Approximate miss-ratio curves").
SPEEDUP_GATES: Tuple[Tuple[str, str, float], ...] = (
    ("lru_access_throughput_batched", "lru_access_throughput", 5.0),
    ("mrc_shards", "mrc_stack_distances", 20.0),
)


def find_speedup_failures(
    current: Dict[str, BenchResult],
    previous: Optional[Dict[str, BenchResult]],
) -> List[str]:
    """Gated scenarios running below their required speedup ratio."""
    messages: List[str] = []
    for batched_name, single_name, min_ratio in SPEEDUP_GATES:
        batched = current.get(batched_name, {}).get("refs_per_s")
        single = None
        if previous is not None:
            single = previous.get(single_name, {}).get("refs_per_s")
        if not single:
            single = current.get(single_name, {}).get("refs_per_s")
        if not batched or not single:
            continue
        ratio = batched / single
        if ratio < min_ratio:
            messages.append(
                f"{batched_name}: {batched:,.0f} refs/s is {ratio:.1f}x "
                f"{single_name} ({single:,.0f}); the fast path promises "
                f">= {min_ratio:.0f}x"
            )
    return messages


def _format_report(
    results: Dict[str, BenchResult],
    previous: Optional[Dict[str, BenchResult]],
) -> str:
    from repro.util.tables import format_table

    rows: List[List[object]] = []
    for name, entry in results.items():
        row: List[object] = [
            name,
            f"{entry['refs_per_s']:,.0f}",
            f"{entry['wall_time_s'] * 1e3:.1f}",
        ]
        old = previous.get(name) if previous else None
        if isinstance(old, dict) and old.get("refs_per_s"):
            ratio = entry["refs_per_s"] / float(old["refs_per_s"])
            row.append(f"{ratio:.2f}x")
        else:
            row.append("-")
        rows.append(row)
    return format_table(
        ["benchmark", "refs/s", "best ms", "vs previous"],
        rows,
        title=f"repro bench ({SUITE})",
    )


def load_baseline(path: Path) -> Optional[Dict[str, Any]]:
    """The baseline document at ``path``, or ``None`` when it is absent.

    Raises:
        ConfigurationError: the file exists but cannot be read, is not
            a JSON object, or has no ``benchmarks`` object — a corrupt
            baseline must not silently turn the regression gate off.
    """
    if not path.is_file():
        return None
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigurationError(
            f"cannot read bench baseline {path}: {exc}"
        ) from exc
    if not isinstance(doc, dict) or not isinstance(
        doc.get("benchmarks"), dict
    ):
        raise ConfigurationError(
            f"bench baseline {path} is not a JSON object with a "
            '"benchmarks" object'
        )
    return doc


def run_bench(
    output: Union[str, Path] = DEFAULT_OUTPUT,
    baseline: Optional[Union[str, Path]] = None,
    threshold: float = DEFAULT_THRESHOLD,
    smoke: bool = False,
    rounds: Optional[int] = None,
    refs: Optional[int] = None,
    batch_size: Optional[int] = None,
) -> int:
    """Run the suite, write ``output``, compare against the baseline.

    ``batch_size`` overrides the ``batch_size`` the batched scenarios
    pass to :meth:`Engine.collect` (default :data:`BATCH_SIZE`).

    Returns the process exit code: 0 clean, 1 when at least one
    benchmark regressed beyond ``threshold`` or a batched scenario
    missed its promised speedup ratio. A corrupt baseline raises
    :class:`~repro.errors.ConfigurationError` (see
    :func:`load_baseline`) before any scenario runs.
    """
    num_refs = refs if refs is not None else (SMOKE_REFS if smoke else FULL_REFS)
    num_rounds = rounds if rounds is not None else (
        SMOKE_ROUNDS if smoke else FULL_ROUNDS
    )
    chunk = batch_size if batch_size is not None else BATCH_SIZE
    out_path = Path(output)
    baseline_path = Path(baseline) if baseline is not None else out_path
    previous_doc = load_baseline(baseline_path)
    previous_benchmarks: Optional[Dict[str, BenchResult]] = (
        None if previous_doc is None else previous_doc["benchmarks"]
    )

    results = run_suite(num_refs, num_rounds, chunk)

    print(_format_report(results, previous_benchmarks))
    regressions: List[str] = []
    if previous_benchmarks is not None:
        regressions = find_regressions(results, previous_benchmarks, threshold)
    regressions.extend(find_speedup_failures(results, previous_benchmarks))

    payload: Dict[str, object] = {
        "suite": SUITE,
        **git_state(),
        "smoke": smoke,
        "rounds": num_rounds,
        "benchmarks": results,
    }
    if previous_doc is not None:
        payload["previous"] = {
            "git_rev": previous_doc.get("git_rev", "unknown"),
            "benchmarks": previous_benchmarks,
        }
    out_path.write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    print(f"\nwrote {out_path}")

    if regressions:
        print("\nGATE FAILURES (regressions / missed speedup ratios):")
        for message in regressions:
            print(f"  {message}")
        return 1
    if previous_benchmarks is not None:
        print(f"no regression beyond {threshold:.0%} vs {baseline_path}")
    return 0
