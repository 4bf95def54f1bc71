"""Whole-program dataflow analysis for the ``repro`` tree (the
``repro check --deep`` pass).

Everything here is AST-only — no project code is imported or executed.
The pipeline:

1. :mod:`project` parses every file into a resolved project model
   (modules, functions, classes, import tables, dispatch tables);
2. :mod:`callgraph` builds a project-wide call graph (virtual dispatch,
   bound-method aliases, registry fan-out);
3. three analyses run over the model + graph:

   - **FLOW001** (:mod:`taint`) — nondeterminism sources reachable from
     simulation/drive/hash entry points;
   - **FLOW002/FLOW003** (:mod:`cachekey`) — spec fields read but not
     hashed; hash-schema drift without a ``SPEC_VERSION`` bump;
   - **FLOW004** (:mod:`hotpath`) — allocations and pointer-chasing in
     ``# repro: hot`` (or derived-hot) functions.

4. :mod:`baseline` subtracts the committed findings baseline so CI only
   fails on *new* findings.

Suppression is the same ``# repro: noqa FLOW00x`` comment the shallow
pass uses, and findings are plain :class:`repro.checks.findings.Finding`
values, so all output formats (human/json/sarif) are shared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.checks.findings import Finding
from repro.checks.flow.baseline import (
    DEFAULT_BASELINE,
    apply_baseline,
    fingerprint,
    load_baseline,
    write_baseline,
)
from repro.checks.flow.cachekey import (
    DEFAULT_MANIFEST,
    schema_findings,
    unsound_read_findings,
    write_hash_schema,
)
from repro.checks.flow.callgraph import build_call_graph
from repro.checks.flow.hotpath import hotpath_findings
from repro.checks.flow.project import Project, as_project
from repro.checks.flow.taint import taint_findings

#: Deep-pass rules, for ``--list-rules`` and ``--select`` validation.
FLOW_RULES: Dict[str, str] = {
    "FLOW001": (
        "nondeterminism source reachable from a simulation/drive/hash "
        "entry point"
    ),
    "FLOW002": (
        "spec field read by execution code but absent from the spec's "
        "content-hash payload"
    ),
    "FLOW003": (
        "hash-relevant spec schema changed without a SPEC_VERSION bump "
        "or manifest regeneration"
    ),
    "FLOW004": (
        "allocation or attribute-chasing inside a '# repro: hot' (or "
        "derived-hot) function"
    ),
}


@dataclass
class FlowReport:
    """Outcome of one deep-pass run."""

    findings: List[Finding] = field(default_factory=list)
    baseline_suppressed: int = 0
    files_analyzed: int = 0

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0


def run_flow_checks(
    project: Union[Project, Sequence[Union[str, Path]]],
    select: Optional[Sequence[str]] = None,
    baseline_path: Optional[Union[str, Path]] = None,
    manifest_path: Optional[Union[str, Path]] = None,
) -> FlowReport:
    """Run the whole-program pass over ``project`` (a built project, or
    the files and directories to build one from) and subtract the
    baseline. ``select`` limits rules; ``None`` runs all FLOW rules."""
    project = as_project(project)
    graph = project.call_graph
    wanted = set(select) if select is not None else set(FLOW_RULES)

    findings: List[Finding] = []
    if "FLOW001" in wanted:
        findings.extend(taint_findings(project, graph))
    if "FLOW002" in wanted:
        findings.extend(unsound_read_findings(project))
    if "FLOW003" in wanted:
        findings.extend(schema_findings(
            project,
            manifest_path if manifest_path is not None else DEFAULT_MANIFEST,
        ))
    if "FLOW004" in wanted:
        findings.extend(hotpath_findings(project, graph))
    findings.sort()

    baseline = load_baseline(
        baseline_path if baseline_path is not None else DEFAULT_BASELINE
    )
    fresh, suppressed = apply_baseline(findings, baseline)
    return FlowReport(
        findings=fresh,
        baseline_suppressed=suppressed,
        files_analyzed=len(project.modules),
    )


__all__ = [
    "FLOW_RULES",
    "FlowReport",
    "apply_baseline",
    "build_call_graph",
    "fingerprint",
    "load_baseline",
    "run_flow_checks",
    "schema_findings",
    "taint_findings",
    "unsound_read_findings",
    "write_baseline",
    "write_hash_schema",
    "DEFAULT_BASELINE",
    "DEFAULT_MANIFEST",
]
