"""Project-wide call-graph construction by AST resolution.

For every function the builder resolves its call sites to project
functions through the cheap, predictable subset of Python's dispatch
that this codebase actually uses:

- plain names (module-level functions, ``from``-imports, nested defs);
- module-attribute calls (``engine.result_from_metrics(...)``) through the
  import tables;
- method calls on ``self`` and on names whose class is known statically
  (parameter annotations, ``v = ClassName(...)`` locals) — resolved
  virtually, i.e. to the class's definition *and* every subclass
  override, so abstract-interface calls (``scheme.access``) fan out to
  all implementations;
- bound-method aliases (``access = scheme.access`` then ``access(...)``,
  the hot-loop idiom);
- registry dispatch: calling a value subscripted out of a module-level
  ``{"name": factory}`` table edges to *every* factory in the table
  (including tables picked via ``A if cond else B``);
- class instantiation (``ClassName(...)`` → ``__init__``).

Unresolvable attribute calls fall back to name-based dispatch across the
project — except for names on the :data:`COMMON_METHOD_NAMES` blacklist
(``get``, ``append``...), which would connect everything to everything.
The result over-approximates real control flow (safe for taint
reachability) without drowning it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.checks.flow.project import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    Project,
    attribute_chain,
    param_annotations,
)

#: Method names never resolved by bare name: they are dominated by
#: builtin/stdlib containers and would wire unrelated code together.
COMMON_METHOD_NAMES: Set[str] = {
    "add", "any", "all", "append", "clear", "close", "copy", "count",
    "decode", "difference", "discard", "dump", "dumps", "encode",
    "endswith", "exists", "extend", "findall", "format", "get", "group",
    "hexdigest", "index", "insert", "intersection", "is_dir", "is_file",
    "isdigit", "items", "join", "keys", "load", "loads", "lower", "match",
    "mkdir", "move_to_end", "open", "pop", "popitem", "put", "read",
    "read_text", "remove", "replace", "resolve", "result", "rglob",
    "search", "setdefault", "sort", "split", "splitlines", "startswith",
    "strip", "sub", "submit", "title", "tolist", "union", "update",
    "upper", "values", "write", "write_text",
}


@dataclass(frozen=True)
class CallSite:
    """One resolved edge of the call graph."""

    caller: str
    callee: str
    lineno: int
    in_loop: bool


class CallGraph:
    """Edges indexed by caller, with loop context per site."""

    def __init__(self) -> None:
        self.edges: Dict[str, List[CallSite]] = {}

    def add(self, site: CallSite) -> None:
        self.edges.setdefault(site.caller, []).append(site)

    def successors(self, qualname: str) -> List[CallSite]:
        return self.edges.get(qualname, [])


def _local_environment(
    project: Project, mod: ModuleInfo, func: FunctionInfo
) -> Tuple[Dict[str, List[str]], Dict[str, List[FunctionInfo]], Dict[str, List[str]]]:
    """Static facts about a function's locals, order-insensitively.

    Returns ``(class_env, alias_env, dispatch_env)``:

    - ``class_env``: local/param name → possible bare class names;
    - ``alias_env``: local name → bound methods / dispatched factories it
      may hold (``access = scheme.access``, ``factory = REGISTRY[k]``);
    - ``dispatch_env``: local name → dispatch tables it may refer to
      (``registry = _MULTI if multi else _SINGLE``).
    """
    class_env: Dict[str, List[str]] = dict(param_annotations(func.node))
    if func.cls is not None:
        class_env.setdefault("self", [func.cls.name])
    alias_env: Dict[str, List[FunctionInfo]] = {}
    dispatch_env: Dict[str, List[str]] = {}

    def dispatch_tables(expr: ast.expr) -> List[str]:
        if isinstance(expr, ast.Name) and expr.id in mod.dispatch:
            return [expr.id]
        if isinstance(expr, ast.IfExp):
            return dispatch_tables(expr.body) + dispatch_tables(expr.orelse)
        return []

    for node in ast.walk(func.node):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        value = node.value
        if isinstance(value, ast.Call):
            chain = attribute_chain(value.func)
            if chain:
                symbol = project.resolve_name(mod, chain[0])
                if isinstance(symbol, ClassInfo) and len(chain) == 1:
                    class_env.setdefault(target.id, [symbol.name])
            continue
        tables = dispatch_tables(value)
        if tables:
            dispatch_env.setdefault(target.id, []).extend(tables)
            continue
        if isinstance(value, ast.Subscript):
            tables = dispatch_tables(value.value)
            if not tables and isinstance(value.value, ast.Name):
                tables = dispatch_env.get(value.value.id, [])
            for table in tables:
                alias_env.setdefault(target.id, []).extend(
                    _dispatch_targets(project, mod, table)
                )
            continue
        if isinstance(value, ast.Attribute):
            targets = _resolve_attribute(
                project, mod, func, value, class_env
            )
            if targets:
                alias_env.setdefault(target.id, []).extend(targets)
    return class_env, alias_env, dispatch_env


def _dispatch_targets(
    project: Project, mod: ModuleInfo, table: str
) -> List[FunctionInfo]:
    """Every callable a dispatch table's values can reach."""
    out: List[FunctionInfo] = []
    for ref in mod.dispatch.get(table, []):
        if isinstance(ref, FunctionInfo):
            out.append(ref)
            continue
        chain = attribute_chain(ref)  # type: ignore[arg-type]
        if not chain:
            continue
        symbol = project.resolve_name(mod, chain[0])
        if isinstance(symbol, FunctionInfo) and len(chain) == 1:
            out.append(symbol)
        elif isinstance(symbol, ClassInfo) and len(chain) == 1:
            init = project._method_on(symbol, "__init__")
            if init is not None:
                out.append(init)
        elif isinstance(symbol, ModuleInfo) and len(chain) >= 2:
            found = project.functions.get(
                f"{symbol.modname}.{'.'.join(chain[1:])}"
            )
            if found is not None:
                out.append(found)
    return out


def _classes_named(project: Project, names: List[str]) -> List[ClassInfo]:
    out: List[ClassInfo] = []
    for name in names:
        out.extend(project.classes_by_name.get(name, []))
    return out


def _resolve_attribute(
    project: Project,
    mod: ModuleInfo,
    func: FunctionInfo,
    node: ast.Attribute,
    class_env: Dict[str, List[str]],
) -> List[FunctionInfo]:
    """Targets of reading ``node`` as a callable (``x.y`` / ``m.f``)."""
    chain = attribute_chain(node)
    if not chain or len(chain) < 2:
        return []
    root, method_name = chain[0], chain[-1]
    # Known class of the receiver (self, annotated param, typed local).
    if len(chain) == 2 and root in class_env:
        targets: List[FunctionInfo] = []
        for cls in _classes_named(project, class_env[root]):
            targets.extend(project.method_candidates(cls, method_name))
        if targets:
            return targets
    # Module alias (``engine.result_from_metrics``) or from-imported module.
    symbol = project.resolve_name(mod, root)
    if isinstance(symbol, ModuleInfo):
        dotted = f"{symbol.modname}.{'.'.join(chain[1:])}"
        found = project.functions.get(dotted)
        if found is not None:
            return [found]
        if len(chain) == 2 and chain[1] in symbol.classes:
            init = project._method_on(symbol.classes[chain[1]], "__init__")
            return [init] if init is not None else []
        return []
    if isinstance(symbol, ClassInfo) and len(chain) == 2:
        # ``ClassName.method`` (unbound access).
        return project.method_candidates(symbol, method_name)
    # Fallback: virtual dispatch by bare method name.
    if method_name in COMMON_METHOD_NAMES:
        return []
    return list(project.methods_by_name.get(method_name, []))


def _resolve_call(
    project: Project,
    mod: ModuleInfo,
    func: FunctionInfo,
    call: ast.Call,
    class_env: Dict[str, List[str]],
    alias_env: Dict[str, List[FunctionInfo]],
    dispatch_env: Dict[str, List[str]],
) -> List[FunctionInfo]:
    target = call.func
    if isinstance(target, ast.Name):
        name = target.id
        out = list(alias_env.get(name, []))
        symbol = project.resolve_name(mod, name)
        if isinstance(symbol, FunctionInfo):
            out.append(symbol)
        elif isinstance(symbol, ClassInfo):
            init = project._method_on(symbol, "__init__")
            if init is not None:
                out.append(init)
        else:
            nested = project.functions.get(
                f"{func.qualname}.<locals>.{name}"
            )
            if nested is not None:
                out.append(nested)
        return out
    if isinstance(target, ast.Subscript):
        tables: List[str] = []
        if isinstance(target.value, ast.Name):
            if target.value.id in mod.dispatch:
                tables.append(target.value.id)
            tables.extend(dispatch_env.get(target.value.id, []))
        out = []
        for table in tables:
            out.extend(_dispatch_targets(project, mod, table))
        return out
    if isinstance(target, ast.Attribute):
        return _resolve_attribute(project, mod, func, target, class_env)
    return []


def build_call_graph(project: Project) -> CallGraph:
    """Resolve every call site of every function in the project."""
    graph = CallGraph()
    for func in project.functions.values():
        mod = func.module
        class_env, alias_env, dispatch_env = _local_environment(
            project, mod, func
        )
        _walk_calls(
            project, graph, mod, func, func.body(),
            class_env, alias_env, dispatch_env, in_loop=False,
        )
    return graph


def _walk_calls(
    project: Project,
    graph: CallGraph,
    mod: ModuleInfo,
    func: FunctionInfo,
    body: List[ast.stmt],
    class_env: Dict[str, List[str]],
    alias_env: Dict[str, List[FunctionInfo]],
    dispatch_env: Dict[str, List[str]],
    in_loop: bool,
) -> None:
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested function: implicit edge (defined here, presumably
            # invoked); its own body is walked as a separate function.
            nested = project.functions.get(
                f"{func.qualname}.<locals>.{stmt.name}"
            )
            if nested is not None:
                graph.add(CallSite(
                    func.qualname, nested.qualname, stmt.lineno, in_loop
                ))
            continue
        loops_here = isinstance(stmt, (ast.For, ast.AsyncFor, ast.While))
        for node in _shallow_walk(stmt):
            if isinstance(node, ast.Call):
                node_in_loop = in_loop or loops_here or _inside_loop(
                    stmt, node
                )
                for target in _resolve_call(
                    project, mod, func, node,
                    class_env, alias_env, dispatch_env,
                ):
                    graph.add(CallSite(
                        func.qualname, target.qualname,
                        node.lineno, node_in_loop,
                    ))
            elif isinstance(node, ast.Lambda):
                for child in ast.walk(node):
                    if isinstance(child, ast.Call):
                        for target in _resolve_call(
                            project, mod, func, child,
                            class_env, alias_env, dispatch_env,
                        ):
                            graph.add(CallSite(
                                func.qualname, target.qualname,
                                child.lineno, True,
                            ))


def _shallow_walk(stmt: ast.stmt) -> List[ast.AST]:
    """Every node under ``stmt`` except nested function/class bodies
    (those are separate functions) and lambda bodies (yielded whole)."""
    out: List[ast.AST] = []
    stack: List[ast.AST] = [stmt]
    while stack:
        node = stack.pop()
        out.append(node)
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ) and node is not stmt:
            continue
        if isinstance(node, ast.Lambda):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return out


def _inside_loop(stmt: ast.stmt, target: ast.AST) -> bool:
    """Whether ``target`` sits inside a loop nested within ``stmt``."""
    for node in ast.walk(stmt):
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            for child in ast.walk(node):
                if child is target:
                    return True
    return False
