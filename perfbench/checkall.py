"""The ``check-all`` workload: the four static-analysis passes over
``src/repro``, as ``repro check --all`` runs them.

The untraced run alternates the full run (``deep``, ``kernel`` and
``bounds`` on) with the default shallow run (what ``repro check`` runs
without flags). The traced run makes one full run with a span around
each deep pass's public entry point; ``run_checks`` imports them at call
time, so rebinding the package attribute is enough. The shallow pass's
time is ``run_checks``'s own self time: the per-file AST rules, the
registry pass and the baseline.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Tuple

import repro.checks.bounds as bounds
import repro.checks.flow as flow
import repro.checks.kernel as kernel
from repro.checks.engine import iter_python_files, run_checks

from perfbench.harness import (
    Outcome,
    Tracer,
    Window,
    median,
    patched,
    unattributed,
)
from perfbench.speed import at_reference_speed

SETUP_REPEATS = 3


def setup(source: Path) -> float:
    """Set-up is the imports above plus finding the files to check."""
    return median([
        at_reference_speed(lambda: iter_python_files([source]))[0]
        for _ in range(SETUP_REPEATS)
    ])


def run_all(source: Path) -> object:
    return run_checks([source], deep=True, kernel=True, bounds=True)


def check_clean(out: Outcome, report: object, what: str) -> None:
    findings = report.findings  # type: ignore[attr-defined]
    out.check(
        not findings,
        f"{what}: {len(findings)} finding(s) beyond the committed baseline: "
        + "; ".join(f.format_human() for f in findings[:5]),
    )


def measure(
    source: Path, seconds: float, out: Outcome
) -> Tuple[Dict[str, float], List[str]]:
    setup_s = setup(source)
    full: List[float] = []
    shallow: List[float] = []
    walls: List[float] = []
    window = Window(seconds)
    while window.more():
        seconds_at_reference, wall, report = at_reference_speed(
            lambda: run_all(source)
        )
        out.op()
        check_clean(out, report, "check --all")
        full.append(seconds_at_reference)
        walls.append(wall)
        seconds_at_reference, _, report = at_reference_speed(
            lambda: run_checks([source])
        )
        out.op()
        check_clean(out, report, "check")
        shallow.append(seconds_at_reference)
        window.done_round()
    metrics = {
        "op_s": median(full),
        "fast_op_s": median(shallow),
        "setup_s": setup_s,
    }
    notes = [
        f"check_s {median(full):.4f} s at the reference speed "
        f"({median(walls):.4f} s wall; median of {len(full)} runs of all "
        f"four passes)",
        f"shallow check {median(shallow):.4f} s at the reference speed "
        f"(median of {len(shallow)})",
    ]
    return metrics, notes


def trace(source: Path, out: Outcome) -> Tuple[Dict[str, float], List[str]]:
    setup(source)
    untraced_s, _, untraced = at_reference_speed(lambda: run_all(source))
    tracer = Tracer()
    with patched(
        flow, "run_flow_checks",
        tracer.wrap("checks.flow", flow.run_flow_checks),
    ), patched(
        kernel, "run_kernel_checks",
        tracer.wrap("checks.kernel", kernel.run_kernel_checks),
    ), patched(
        bounds, "run_bounds_checks",
        tracer.wrap("checks.bounds", bounds.run_bounds_checks),
    ):
        traced_s, traced_wall, traced = at_reference_speed(
            tracer.wrap("checks.shallow", lambda: run_all(source))
        )
    out.op(2)
    check_clean(out, traced, "check --all (traced)")
    out.check(
        traced.findings == untraced.findings,  # type: ignore[attr-defined]
        "check --all: traced findings differ from untraced",
    )
    out.check(
        all(tracer.calls.get(name) == 1 for name in
            ("checks.flow", "checks.kernel", "checks.bounds")),
        "check --all: a pass entry point was not called exactly once",
    )
    scale = traced_s / traced_wall
    layers = {
        f"{name}_s": seconds * scale
        for name, seconds in tracer.self_time.items()
    }
    metrics = dict(layers)
    metrics.update({
        "traced_wall_s": traced_s,
        "unattributed_s": unattributed(traced_s, layers),
        "checks.findings": float(len(traced.findings)),  # type: ignore[attr-defined]
        "trace_overhead_frac": traced_s / untraced_s - 1.0,
    })
    notes = [
        f"at the reference speed: untraced {untraced_s:.3f}s, "
        f"traced {traced_s:.3f}s"
    ]
    return metrics, notes
