"""Static cost-bound analysis of the hot paths (the ``repro check
--bounds`` pass).

The ULC protocol advertises constant time per reference and the hit-run
kernels advertise linear time per run; the bench regression gate only
protects the scenarios we benchmark. This pass checks the asymptotics
statically: an abstract interpreter over the ``--deep`` project model
(:mod:`repro.checks.flow.project`) infers a symbolic cost on the
``O(1) < O(log n) < O(n) < O(n log n) < O(n^2) < O(n^k)`` lattice for
every function, mapping loops to the structures they iterate with the
kernel pass's slab/list role resolution and composing call costs
interprocedurally through the ``--deep`` call graph as a monotone
fixpoint. Everything is AST-only; no project code is imported or
executed.

Hot entry points — policy ``access``/``evict``/``victim`` (budget
``O(1)``), the hit-run entries (``hit_run``/``access_hit_run*``,
budget ``O(n)``), the ``Engine._drive*`` loops and ``# repro: hot``
marks — seed a derived-hot set, and four rules police it:

- **BND001** — a hot path exceeds its declared or default budget (the
  dominating loop nest rendered as SARIF ``codeFlows``);
- **BND002** — an unbounded ``while`` over a linked chain with no
  structural decrease;
- **BND003** — a per-reference allocation inside an inferred-hot
  callee, deepening FLOW004 beyond direct ``# repro: hot`` bodies;
- **BND004** — a stale, invalid, unjustified or orphaned
  ``# repro: bound`` annotation.

Intentional non-constant walks are declared in place with the grammar
from :mod:`repro.checks.bounds.cost`::

    # repro: bound O(n) -- DemotionSearching walks at most the gap to
    #                      the level successor (paper Section 3.2)

Suppression is the same ``# repro: noqa BND00x`` comment, findings are
plain :class:`repro.checks.findings.Finding` values, and the baseline
store is shared with the deep and kernel passes — one
``--update-baseline``, one file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.checks.bounds.cost import Bound, Cost, combine, parse_bound, scale
from repro.checks.bounds.infer import BoundsChecker, run_bounds_analysis
from repro.checks.findings import Finding
from repro.checks.flow.baseline import (
    DEFAULT_BASELINE,
    apply_baseline,
    load_baseline,
)
from repro.checks.flow.project import Project, as_project

#: Bounds-pass rules, for ``--list-rules`` and ``--select`` validation.
BOUNDS_RULES: Dict[str, str] = {
    "BND001": (
        "cost-budget violation: a hot path's inferred cost exceeds its "
        "declared or default per-reference budget"
    ),
    "BND002": (
        "unbounded chain walk: a while loop over a linked chain with "
        "no structural decrease on any path"
    ),
    "BND003": (
        "hot-callee allocation: a container materialization inside an "
        "inferred-hot callee beyond the '# repro: hot'-marked bodies"
    ),
    "BND004": (
        "bound-annotation hygiene: a stale, invalid, unjustified or "
        "orphaned '# repro: bound' annotation"
    ),
}


@dataclass
class BoundsReport:
    """Outcome of one bounds-pass run."""

    findings: List[Finding] = field(default_factory=list)
    baseline_suppressed: int = 0
    files_analyzed: int = 0

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0


def run_bounds_checks(
    project: Union[Project, Sequence[Union[str, Path]]],
    select: Optional[Sequence[str]] = None,
    baseline_path: Optional[Union[str, Path]] = None,
) -> BoundsReport:
    """Run the cost-bound pass over ``project`` (a built project, or the
    files and directories to build one from) and subtract the baseline.
    ``select`` limits rules; ``None`` runs all BND rules."""
    project = as_project(project)
    wanted = set(select) if select is not None else set(BOUNDS_RULES)

    findings = run_bounds_analysis(project, wanted)

    baseline = load_baseline(
        baseline_path if baseline_path is not None else DEFAULT_BASELINE
    )
    fresh, suppressed = apply_baseline(findings, baseline)
    return BoundsReport(
        findings=fresh,
        baseline_suppressed=suppressed,
        files_analyzed=len(project.modules),
    )


__all__ = [
    "BOUNDS_RULES",
    "Bound",
    "BoundsChecker",
    "BoundsReport",
    "Cost",
    "combine",
    "parse_bound",
    "run_bounds_analysis",
    "run_bounds_checks",
    "scale",
]
