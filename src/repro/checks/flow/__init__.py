"""Whole-program dataflow analysis for the ``repro`` tree (the
``repro check --deep`` pass).

Everything here is AST-only — no project code is imported or executed.
The pipeline:

1. :mod:`project` parses every file into a resolved project model
   (modules, functions, classes, import tables, dispatch tables);
2. :mod:`callgraph` builds a project-wide call graph (virtual dispatch,
   bound-method aliases, registry fan-out);
3. two analyses run over the model + graph:

   - **FLOW001** (:mod:`taint`) — nondeterminism sources reachable from
     simulation/drive/hash entry points;
   - **FLOW002/FLOW003** (:mod:`cachekey`) — spec fields read but not
     hashed; hash-schema drift without a ``SPEC_VERSION`` bump.

The pass returns its raw findings. ``repro check``
(:func:`repro.checks.engine.run_checks`) applies ``# repro: noqa
FLOW00x`` comments and the committed baseline
(:mod:`repro.checks.baseline`) to them, as it does to every pass, and
renders them in every output format.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.checks.findings import Finding
from repro.checks.flow.cachekey import (
    DEFAULT_MANIFEST,
    schema_findings,
    unsound_read_findings,
    write_hash_schema,
)
from repro.checks.flow.callgraph import build_call_graph
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
}


def run_flow_checks(
    project: Union[Project, Sequence[Union[str, Path]]],
    manifest_path: Optional[Union[str, Path]] = None,
) -> List[Finding]:
    """Every FLOW finding over ``project`` (a built project, or the
    files and directories to build one from), unfiltered."""
    project = as_project(project)
    return (
        taint_findings(project, project.call_graph)
        + unsound_read_findings(project)
        + schema_findings(
            project,
            manifest_path if manifest_path is not None else DEFAULT_MANIFEST,
        )
    )


__all__ = [
    "FLOW_RULES",
    "build_call_graph",
    "run_flow_checks",
    "schema_findings",
    "taint_findings",
    "unsound_read_findings",
    "write_hash_schema",
    "DEFAULT_MANIFEST",
]
