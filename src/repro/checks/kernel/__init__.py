"""Slot-typestate analysis of the slab kernel and its hit-run fast
paths (the ``repro check --kernel`` pass).

The slab kernel (:mod:`repro.util.intlist`) and its consumers do manual
memory management in index space: raw ``prev``/``next`` arrays, shared
slot spaces, O(1) inline splices. Python gives no runtime protection
there — a freed slot is just an ``int`` — so this pass provides the
static half of the contract the dynamic ``check_invariants()`` harness
checks at runtime. Everything is AST-only and reuses the ``--deep``
project model (:mod:`repro.checks.flow.project`); no project code is
imported or executed.

Two analyses run over the model:

- **KER001/KER002/KER003** (:mod:`typestate`) — abstract interpretation
  of every slab-touching function over the slot lifecycle lattice
  ``allocated → linked → unlinked → freed``, reporting use-after-free,
  slot leaks and cross-slab confusion with the intraprocedural path
  attached as finding steps (rendered as SARIF ``codeFlows``);
- **KER004** (:mod:`batch`) — guarded hit-run fast paths: bulk
  recency mutators in ``hit_run`` / ``access_hit_run`` run only under
  a residency guard.

Suppression is the same ``# repro: noqa KER00x`` comment, findings are
plain :class:`repro.checks.findings.Finding` values, and the baseline
store (fingerprints over ``rule|path|message``, no line numbers) is
shared with the deep pass — one ``--update-baseline``, one file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.checks.findings import Finding
from repro.checks.flow.baseline import (
    DEFAULT_BASELINE,
    apply_baseline,
    load_baseline,
)
from repro.checks.flow.project import Project, as_project
from repro.checks.kernel.batch import run_batch_contract
from repro.checks.kernel.typestate import KernelChecker, run_typestate

#: Kernel-pass rules, for ``--list-rules`` and ``--select`` validation.
KERNEL_RULES: Dict[str, str] = {
    "KER001": (
        "use-after-free: a possibly-freed slot is spliced, linked, "
        "unlinked or freed again"
    ),
    "KER002": (
        "slot leak: an allocated slot is neither freed, linked nor "
        "stored on some exit path of the allocating function"
    ),
    "KER003": (
        "cross-slab confusion: a slot index from one slot space flows "
        "into another slab's arrays, lists or free()"
    ),
    "KER004": (
        "unguarded fast path: a hit_run loop calls a recency mutator "
        "with no residency guard"
    ),
}


@dataclass
class KernelReport:
    """Outcome of one kernel-pass run."""

    findings: List[Finding] = field(default_factory=list)
    baseline_suppressed: int = 0
    files_analyzed: int = 0

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0


def run_kernel_checks(
    project: Union[Project, Sequence[Union[str, Path]]],
    select: Optional[Sequence[str]] = None,
    baseline_path: Optional[Union[str, Path]] = None,
) -> KernelReport:
    """Run the slot-typestate pass over ``project`` (a built project, or
    the files and directories to build one from) and subtract the
    baseline. ``select`` limits rules; ``None`` runs all KER rules."""
    project = as_project(project)
    wanted = set(select) if select is not None else set(KERNEL_RULES)

    findings: List[Finding] = []
    if wanted & {"KER001", "KER002", "KER003"}:
        findings.extend(run_typestate(project, wanted))
    findings.extend(run_batch_contract(project, wanted))
    findings.sort()

    baseline = load_baseline(
        baseline_path if baseline_path is not None else DEFAULT_BASELINE
    )
    fresh, suppressed = apply_baseline(findings, baseline)
    return KernelReport(
        findings=fresh,
        baseline_suppressed=suppressed,
        files_analyzed=len(project.modules),
    )


__all__ = [
    "KERNEL_RULES",
    "KernelChecker",
    "KernelReport",
    "run_batch_contract",
    "run_kernel_checks",
    "run_typestate",
]
