"""FLOW001 — whole-program nondeterminism taint tracking.

The shallow DET/SEED rules flag nondeterminism *sources* file by file;
this pass answers the question that actually decides whether the result
cache is sound: **can any source's value flow into a simulation, drive
or hash entry point?** A wall-clock read in a CLI report is fine; the
same read inside something :meth:`Engine.drive` can reach is a cached
wrong answer waiting to happen.

Sources (each carries its reason in the finding):

- wall clock — any call into ``time`` / ``datetime``;
- unseeded RNG — module-level ``random.*`` calls, ``default_rng()`` /
  ``Random()`` without a seed, legacy ``np.random.*`` global-state API,
  ``os.urandom``;
- interpreter identity — ``id(...)`` (address-dependent);
- environment reads — ``os.environ`` / ``os.getenv``;
- set-order iteration — ``for``/comprehension/``list(...)`` over a bare
  set (hash-seeding-dependent order).

Entry points are matched by name so the pass works on the live tree and
on synthetic test packages alike: the ``Engine`` drives (``drive``,
``drive_stream``, ``collect``, ``collect_stream``), ``run_specs``,
``sweep_server_size``, ``content_hash`` / ``spec_hash``, and ``access``
/ ``evict`` methods (the per-reference scheme hot paths).

A finding anchors at the *source* line (that is where the fix or the
justified ``# repro: noqa FLOW001`` belongs) and quotes one concrete
call path from the entry point, so the report reads as a proof sketch.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.checks.findings import Finding
from repro.checks.flow.callgraph import CallGraph
from repro.checks.flow.project import (
    FunctionInfo,
    ModuleInfo,
    Project,
    attribute_chain,
)
from repro.checks.rules import (
    _NP_RANDOM_OK,
    _ORDER_LEAKING_CALLS,
    _is_set_expression,
)

#: Modules whose attributes are wall clocks / global RNG state.
NONDET_MODULES = {"time", "datetime", "random"}

#: Function names treated as simulation/drive/hash entry points.
ENTRY_FUNCTION_NAMES = {
    "drive", "drive_stream", "collect", "collect_stream",
    "run_specs", "sweep_server_size",
}
ENTRY_METHOD_NAMES = {"access", "evict"}
ENTRY_HASH_NAMES = {"content_hash", "spec_hash"}


@dataclass(frozen=True)
class TaintSource:
    """One nondeterminism source site inside one function."""

    func: str
    path: str
    lineno: int
    col: int
    reason: str


def is_entry_point(func: FunctionInfo) -> bool:
    if func.name in ENTRY_FUNCTION_NAMES or func.name in ENTRY_HASH_NAMES:
        return True
    return func.cls is not None and func.name in ENTRY_METHOD_NAMES


def _returns_set(mod: ModuleInfo, node: ast.AST) -> bool:
    """True for calls to same-module functions annotated ``-> Set[...]``
    (so ``labels = _labels(...)`` is tracked as set-valued)."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
        return False
    target = mod.functions.get(f"{mod.modname}.{node.func.id}")
    if target is None or isinstance(target.node, ast.Lambda):
        return False
    returns = target.node.returns  # type: ignore[attr-defined]
    if isinstance(returns, ast.Subscript):
        returns = returns.value
    chain = attribute_chain(returns) if returns is not None else ()
    return bool(chain) and chain[-1] in (
        "Set", "FrozenSet", "set", "frozenset", "AbstractSet", "MutableSet"
    )


def _nondet_root(mod: ModuleInfo, name: str) -> Optional[str]:
    """The nondeterministic module a bare name refers to, if any."""
    if name in mod.imports and mod.imports[name] in NONDET_MODULES:
        return mod.imports[name]
    if name in mod.from_imports:
        source = mod.from_imports[name][0].split(".")[0]
        if source in NONDET_MODULES:
            return source
    return None


def scan_function_sources(func: FunctionInfo) -> List[TaintSource]:
    """Local nondeterminism sources of one function."""
    mod = func.module
    if mod.is_rng_module():
        return []
    sources: List[TaintSource] = []

    def add(node: ast.AST, reason: str) -> None:
        sources.append(TaintSource(
            func=func.qualname,
            path=mod.path,
            lineno=getattr(node, "lineno", func.lineno),
            col=getattr(node, "col_offset", 0),
            reason=reason,
        ))

    set_names: Set[str] = set()
    for node in func.own_nodes():
        value, targets = None, []
        if isinstance(node, ast.Assign):
            value, targets = node.value, node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            value, targets = node.value, [node.target]
        if value is not None and (
            _is_set_expression(value) or _returns_set(mod, value)
        ):
            for target in targets:
                if isinstance(target, ast.Name):
                    set_names.add(target.id)

    def leaks_set_order(node: ast.AST) -> bool:
        if _is_set_expression(node):
            return True
        return isinstance(node, ast.Name) and node.id in set_names

    for node in func.own_nodes():
        if isinstance(node, ast.Call):
            chain = attribute_chain(node.func)
            if chain:
                root_module = _nondet_root(mod, chain[0])
                if root_module in ("time", "datetime"):
                    add(node, f"wall clock ({'.'.join(chain)})")
                elif root_module == "random" and len(chain) >= 2:
                    add(node, f"global random state ({'.'.join(chain)})")
                elif root_module == "random" and len(chain) == 1 \
                        and chain[0] in mod.from_imports:
                    add(node, f"unseeded stdlib RNG ({chain[0]})")
                elif chain == ("os", "urandom"):
                    add(node, "os.urandom entropy")
                elif chain in (("os", "getenv"), ("os", "environ", "get")):
                    add(node, "environment read")
                elif chain[-1] == "default_rng" and not node.args \
                        and not node.keywords:
                    add(node, "default_rng() without a seed")
                elif chain[-1] == "Random" and not node.args \
                        and not node.keywords \
                        and _nondet_root(mod, chain[0]) == "random":
                    add(node, "random.Random() without a seed")
                elif len(chain) >= 3 and chain[-2] == "random" \
                        and chain[0] in ("np", "numpy") \
                        and chain[-1] not in _NP_RANDOM_OK:
                    add(node, f"legacy np.random.{chain[-1]} global state")
                elif chain == ("id",) or (
                    len(chain) == 1 and chain[0] == "id"
                ):
                    add(node, "id() interpreter address")
            if isinstance(node.func, ast.Name) \
                    and node.func.id in _ORDER_LEAKING_CALLS and node.args \
                    and leaks_set_order(node.args[0]):
                add(node, f"{node.func.id}(...) over a set (hash order)")
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            if leaks_set_order(node.iter):
                add(node.iter, "iteration over a set (hash order)")
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for gen in node.generators:
                if leaks_set_order(gen.iter):
                    add(gen.iter, "comprehension over a set (hash order)")
        elif isinstance(node, ast.Subscript):
            if attribute_chain(node.value) == ("os", "environ"):
                add(node, "os.environ read")
    return sources


def taint_findings(
    project: Project, graph: CallGraph
) -> List[Finding]:
    """FLOW001 findings: sources reachable from any entry point."""
    sources_by_func: Dict[str, List[TaintSource]] = {}
    for func in project.functions.values():
        found = scan_function_sources(func)
        if found:
            sources_by_func[func.qualname] = found

    entries = sorted(
        (f for f in project.functions.values() if is_entry_point(f)),
        key=lambda f: f.qualname,
    )
    findings: List[Finding] = []
    reported: Set[Tuple[str, int, str]] = set()
    for entry in entries:
        parents: Dict[str, Optional[str]] = {entry.qualname: None}
        frontier = [entry.qualname]
        while frontier:
            current = frontier.pop(0)
            for site in graph.successors(current):
                if site.callee not in parents:
                    parents[site.callee] = current
                    frontier.append(site.callee)
        for reached in parents:
            for source in sources_by_func.get(reached, ()):
                key = (source.path, source.lineno, source.reason)
                if key in reported:
                    continue
                reported.add(key)
                findings.append(Finding(
                    path=source.path,
                    line=source.lineno,
                    col=source.col,
                    rule="FLOW001",
                    message=(
                        f"nondeterminism [{source.reason}] reaches entry "
                        f"point {entry.display!r} via "
                        f"{_format_path(project, parents, reached)}; a "
                        f"replayed RunSpec can diverge from its cached "
                        f"result"
                    ),
                ))
    return findings


def _format_path(
    project: Project,
    parents: Dict[str, Optional[str]],
    target: str,
) -> str:
    chain: List[str] = []
    cursor: Optional[str] = target
    while cursor is not None:
        info = project.functions.get(cursor)
        chain.append(info.display if info is not None else cursor)
        cursor = parents.get(cursor)
    chain.reverse()
    if len(chain) > 6:
        chain = chain[:2] + ["..."] + chain[-3:]
    return " -> ".join(chain)
