"""FLOW004 — allocation lint for marked and derived hot paths.

The slab/array kernel (PR 3) exists because per-reference allocations
dominated the drive loop; this rule keeps them from creeping back. Two
kinds of functions are "hot":

- **marked** — a ``# repro: hot`` comment on (or directly above) the
  ``def`` line;
- **derived** — reachable from a marked function through call sites
  that sit inside a loop (a helper called once per reference is as hot
  as the loop that calls it). Derived-hot functions propagate through
  *all* their calls: once per-reference, everything below is
  per-reference.

Inside a hot function the rule flags:

- container-builder calls — ``list`` / ``dict`` / ``set`` /
  ``frozenset`` / ``sorted`` (each allocates and copies);
- comprehensions and generator expressions (allocate per evaluation);
- attribute chains of three or more names inside a loop
  (``self.a.b.c`` re-chases two pointers per iteration — hoist to a
  local, the PR 3 idiom).

Deliberately *not* flagged: ``tuple(...)`` and bare ``[]`` / ``{}``
displays — the protocol legitimately returns per-access event tuples —
and anything inside ``repro.checks`` itself (the invariant wrapper is
instrumentation, not a hot path).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.checks.findings import Finding
from repro.checks.flow.callgraph import CallGraph
from repro.checks.flow.project import (
    FunctionInfo,
    Project,
    attribute_chain,
)

#: Builtin container builders that allocate (``tuple`` exempt: the
#: protocol's event tuples are part of its return contract).
ALLOCATING_BUILTINS = ("list", "dict", "set", "frozenset", "sorted")

#: Attribute chains at or past this depth inside a hot loop get flagged.
ATTRIBUTE_CHASE_DEPTH = 3


def hot_functions(
    project: Project, graph: CallGraph
) -> Dict[str, Tuple[FunctionInfo, str]]:
    """Qualname → (function, why-hot) for marked + derived hot code."""
    hot: Dict[str, Tuple[FunctionInfo, str]] = {}
    frontier: List[str] = []
    for func in project.functions.values():
        if func.hot_marked and not func.module.in_checks_package():
            hot[func.qualname] = (func, "marked '# repro: hot'")
            frontier.append(func.qualname)
    while frontier:
        current = frontier.pop(0)
        info, _ = hot[current]
        marked = info.hot_marked
        for site in graph.successors(current):
            # From a marked root only loop-resident calls are hot; once
            # derived-hot, every call below runs per reference.
            if marked and not site.in_loop:
                continue
            if site.callee in hot:
                continue
            callee = project.functions.get(site.callee)
            if callee is None or callee.module.in_checks_package():
                continue
            hot[site.callee] = (
                callee,
                f"called per-iteration from hot {info.display}",
            )
            frontier.append(site.callee)
    return hot


def _loop_nodes(func: FunctionInfo) -> Set[int]:
    """ids() of nodes lexically inside a loop within this function."""
    inside: Set[int] = set()
    for node in ast.walk(func.node):
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            for child in ast.walk(node):
                if child is not node:
                    inside.add(id(child))
    return inside


def _own_nodes(func: FunctionInfo) -> Iterable[ast.AST]:
    """Nodes of the function body, excluding nested def/class bodies."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(func.node)) \
        if not isinstance(func.node, ast.Lambda) else [func.node.body]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                   ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def hotpath_findings(project: Project, graph: CallGraph) -> List[Finding]:
    """FLOW004 findings across all hot functions."""
    findings: List[Finding] = []
    hot = hot_functions(project, graph)
    for qualname in sorted(hot):
        func, why = hot[qualname]
        mod = func.module
        in_loop = _loop_nodes(func)
        seen: Set[Tuple[int, str]] = set()

        def add(node: ast.AST, what: str) -> None:
            lineno = getattr(node, "lineno", func.lineno)
            key = (lineno, what)
            if key in seen:
                return
            seen.add(key)
            codes = mod.file.suppressions.get(lineno, ())
            if codes is None or "FLOW004" in codes:  # type: ignore[operator]
                return
            findings.append(Finding(
                path=mod.path,
                line=lineno,
                col=getattr(node, "col_offset", 0),
                rule="FLOW004",
                message=(
                    f"{what} in hot path {func.display} ({why}); "
                    f"hoist it out of the per-reference path or allocate "
                    f"once up front"
                ),
            ))

        for node in _own_nodes(func):
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Name
            ) and node.func.id in ALLOCATING_BUILTINS:
                add(node, f"{node.func.id}(...) allocation")
            elif isinstance(node, ast.ListComp):
                add(node, "list comprehension")
            elif isinstance(node, ast.SetComp):
                add(node, "set comprehension")
            elif isinstance(node, ast.DictComp):
                add(node, "dict comprehension")
            elif isinstance(node, ast.GeneratorExp):
                add(node, "generator expression")
            elif isinstance(node, ast.Attribute) and id(node) in in_loop:
                chain = attribute_chain(node)
                if len(chain) >= ATTRIBUTE_CHASE_DEPTH and not isinstance(
                    getattr(node, "ctx", None), (ast.Store, ast.Del)
                ):
                    # Only report the outermost attribute of a chain.
                    if not _is_sub_attribute(node, in_loop, func):
                        add(
                            node,
                            f"attribute chain {'.'.join(chain)} re-chased "
                            f"per iteration",
                        )
    return findings


def _is_sub_attribute(
    node: ast.Attribute, in_loop: Set[int], func: FunctionInfo
) -> bool:
    """True when ``node`` is the ``.value`` of a longer Attribute chain
    (the outer node reports instead)."""
    for other in _own_nodes(func):
        if isinstance(other, ast.Attribute) and other.value is node:
            return True
    return False
