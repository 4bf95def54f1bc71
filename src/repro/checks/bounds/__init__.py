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
- **BND003** — a per-reference allocation, or an attribute chain
  re-chased per loop iteration, in a hot function or in anything a
  ``# repro: hot`` function reaches per reference;
- **BND004** — a stale, invalid, unjustified or orphaned
  ``# repro: bound`` annotation.

Intentional non-constant walks are declared in place with the grammar
from :mod:`repro.checks.bounds.cost`::

    # repro: bound O(n) -- DemotionSearching walks at most the gap to
    #                      the level successor (paper Section 3.2)

The pass returns its raw findings; ``repro check`` applies ``# repro:
noqa BND00x`` comments and the baseline every pass shares.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Sequence, Union

from repro.checks.bounds.cost import Bound, Cost, combine, parse_bound, scale
from repro.checks.bounds.infer import BoundsChecker
from repro.checks.findings import Finding
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
        "hot-path allocation: a container materialization, or an "
        "attribute chain re-chased per loop iteration, on a per-reference "
        "path"
    ),
    "BND004": (
        "bound-annotation hygiene: a stale, invalid, unjustified or "
        "orphaned '# repro: bound' annotation"
    ),
}


def run_bounds_checks(
    project: Union[Project, Sequence[Union[str, Path]]],
) -> List[Finding]:
    """Every BND finding over ``project`` (a built project, or the files
    and directories to build one from), unfiltered."""
    return BoundsChecker(as_project(project)).report()


__all__ = [
    "BOUNDS_RULES",
    "Bound",
    "BoundsChecker",
    "Cost",
    "combine",
    "parse_bound",
    "run_bounds_checks",
    "scale",
]
