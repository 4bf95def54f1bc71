"""KER004 — guarded hit-run fast paths.

Inside ``hit_run`` / ``access_hit_run``, bulk recency mutators
(``touch`` and friends) may only run under the recency-region proof:
the mutator sits behind a conditional, the loop carries an escape guard
(``break``/``return`` on the proof failing), or the whole loop is
entered only after the proof check. An unguarded bulk ``touch`` is
exactly the bug the golden digests caught once already — it reorders
stacks for blocks outside the proven region.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional

from repro.checks.findings import Finding
from repro.checks.flow.project import Project

#: Entry points whose loops need the recency-region guard (the bounds
#: pass gives the same entries a linear default budget).
FAST_PATH_NAMES = {"hit_run", "access_hit_run", "access_hit_run_multi"}

#: Recency-mutating operations a fast path may only run when guarded.
MUTATOR_NAMES = {"touch", "move_to_front", "move_to_end", "access"}


def _contains(node: ast.AST, kinds: tuple) -> bool:
    return any(isinstance(sub, kinds) for sub in ast.walk(node))


def _mutator_calls(node: ast.AST) -> List[ast.Call]:
    out: List[ast.Call] = []
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Call):
            continue
        if isinstance(sub.func, ast.Attribute) and \
                sub.func.attr in MUTATOR_NAMES:
            out.append(sub)
        elif isinstance(sub.func, ast.Name) and \
                sub.func.id in MUTATOR_NAMES:
            out.append(sub)
    return out


def run_batch_contract(project: Project) -> List[Finding]:
    """KER004 findings over ``project``."""
    findings: List[Finding] = []
    for func in project.functions.values():
        if func.name not in FAST_PATH_NAMES or \
                func.module.in_checks_package() or \
                isinstance(func.node, ast.Lambda):
            continue
        nodes = func.walk()
        parents: Dict[ast.AST, ast.AST] = {}
        for node in nodes:
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        for loop in nodes:
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            # rule 3: the loop runs only after a proof check
            loop_guarded = False
            cursor = parents.get(loop)
            while cursor is not None and cursor is not func.node:
                if isinstance(cursor, ast.If):
                    loop_guarded = True
                    break
                cursor = parents.get(cursor)
            # rule 2: the loop carries an escape guard
            escape_guard = any(
                isinstance(stmt, ast.If) and _contains(
                    stmt, (ast.Break, ast.Return, ast.Continue, ast.Raise)
                )
                for stmt in ast.walk(loop)
                if stmt is not loop
            )
            for call in _mutator_calls(loop):
                # only consider calls whose innermost loop is this one
                cursor = parents.get(call)
                inner: Optional[ast.AST] = None
                call_in_if = False
                while cursor is not None and cursor is not loop:
                    if isinstance(cursor, (ast.For, ast.While)):
                        inner = cursor
                        break
                    if isinstance(cursor, ast.If):
                        call_in_if = True
                    cursor = parents.get(cursor)
                if inner is not None:
                    continue
                if call_in_if or escape_guard or loop_guarded:
                    continue
                name = (call.func.attr if isinstance(call.func, ast.Attribute)
                        else call.func.id)  # type: ignore[union-attr]
                findings.append(Finding(
                    path=func.module.path, line=call.lineno, col=0,
                    rule="KER004",
                    message=(
                        f"unguarded fast path: bulk `{name}` runs for "
                        f"every loop iteration of {func.display} without "
                        "a recency-region guard (no conditional, escape "
                        "guard or pre-checked loop)"
                    ),
                    steps=((loop.lineno, "loop over the probed run"),
                           (call.lineno, f"unconditional `{name}`")),
                ))
    return findings
