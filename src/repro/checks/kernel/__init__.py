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

The pass returns its raw findings; ``repro check`` applies ``# repro:
noqa KER00x`` comments and the baseline every pass shares.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Sequence, Union

from repro.checks.findings import Finding
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


def run_kernel_checks(
    project: Union[Project, Sequence[Union[str, Path]]],
) -> List[Finding]:
    """Every KER finding over ``project`` (a built project, or the files
    and directories to build one from), unfiltered."""
    project = as_project(project)
    return run_typestate(project) + run_batch_contract(project)


__all__ = [
    "KERNEL_RULES",
    "KernelChecker",
    "run_batch_contract",
    "run_kernel_checks",
    "run_typestate",
]
