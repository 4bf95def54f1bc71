"""The whole-program model the flow pass analyses.

The shallow rules (:mod:`repro.checks.rules`) see one file at a time;
the deep pass needs to see the *project*: every module parsed once, with
its imports, functions, classes, class hierarchy and registry-style
dispatch tables indexed so the call-graph builder
(:mod:`repro.checks.flow.callgraph`) can resolve cross-module and
dispatched calls without importing any analysed code.

Everything here is AST-only — analysed trees are never executed, so the
pass is safe to run over synthetic test packages and broken branches
alike.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.checks.engine import SourceFile, iter_python_files
from repro.checks.rules import attribute_chain

if TYPE_CHECKING:
    from repro.checks.flow.callgraph import CallGraph
    from repro.checks.kernel.model import ClassModel

#: Marker comment promising a function allocates nothing per call; the
#: hot-path allocation lint (BND003) treats it as a root of its hot set.
HOT_MARKER = "repro: hot"


#: The statements that repeat their body.
LOOPS = (ast.For, ast.AsyncFor, ast.While)


def loop_nested_ids(nodes: Iterable[ast.AST]) -> Set[int]:
    """Ids of every node among ``nodes`` that runs once per iteration
    of a loop: a loop's target and body, a ``while`` loop's test, and
    all of a loop nested in those. A ``for`` loop's iterable and a
    loop's ``else`` clause run once per entry, so they count only when
    the loop itself repeats. ``nodes`` must yield each loop before
    anything inside it (``ast.walk`` and
    :meth:`FunctionInfo.own_nodes` do), so a loop already in the set is
    covered whole."""
    ids: Set[int] = set()
    for node in nodes:
        if isinstance(node, LOOPS) and id(node) not in ids:
            head = node.test if isinstance(node, ast.While) else node.target
            for part in (head, *node.body):
                ids.update(map(id, ast.walk(part)))
    return ids


def module_name_for(path: Path) -> Tuple[str, Path]:
    """Dotted module name of ``path`` plus the directory containing its
    topmost package (walks up while ``__init__.py`` files exist)."""
    path = path.resolve()
    parts: List[str] = [] if path.stem == "__init__" else [path.stem]
    parent = path.parent
    while (parent / "__init__.py").is_file():
        parts.insert(0, parent.name)
        parent = parent.parent
    if not parts:
        parts = [path.stem]
    return ".".join(parts), parent


@dataclass
class FunctionInfo:
    """One function, method or registry lambda in the project."""

    qualname: str
    name: str
    module: "ModuleInfo"
    node: ast.AST  # FunctionDef / AsyncFunctionDef / Lambda
    lineno: int
    cls: Optional["ClassInfo"] = None
    hot_marked: bool = False

    @property
    def display(self) -> str:
        """Short human label (``mod.Class.method`` without the package)."""
        parts = self.qualname.split(".")
        return ".".join(parts[-3:] if self.cls is not None else parts[-2:])

    def body(self) -> List[ast.stmt]:
        if isinstance(self.node, ast.Lambda):
            return [ast.Expr(self.node.body)]
        return list(self.node.body)  # type: ignore[attr-defined]

    def walk(self) -> Tuple[ast.AST, ...]:
        """Every node of the function, nested bodies included, in
        ``ast.walk`` order; walked once and shared by every pass."""
        return self._walked

    def own_nodes(self) -> Tuple[ast.AST, ...]:
        """Every node of the function except nested def/class/lambda
        bodies (those are functions of their own), computed once."""
        return self._own

    @cached_property
    def _walked(self) -> Tuple[ast.AST, ...]:
        return tuple(ast.walk(self.node))

    @cached_property
    def _own(self) -> Tuple[ast.AST, ...]:
        out: List[ast.AST] = []
        stack: List[ast.AST] = [self.node.body] if isinstance(
            self.node, ast.Lambda
        ) else list(ast.iter_child_nodes(self.node))
        while stack:
            node = stack.pop()
            out.append(node)
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef, ast.Lambda)):
                stack.extend(ast.iter_child_nodes(node))
        return tuple(out)


@dataclass
class ClassInfo:
    """One class definition with its dataclass-style fields."""

    qualname: str
    name: str
    module: "ModuleInfo"
    node: ast.ClassDef
    base_names: List[str] = field(default_factory=list)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: Annotated assignments in the class body, in declaration order —
    #: for a dataclass these are exactly the instance fields.
    fields: List[str] = field(default_factory=list)


class ModuleInfo:
    """One parsed source file plus the symbol tables the pass needs."""

    def __init__(self, file: SourceFile, modname: str) -> None:
        self.file = file
        self.path = file.path
        self.modname = modname
        self.source = file.source
        self.tree = file.tree
        self.lines = self.source.splitlines()
        #: ``import x.y as z`` → ``{"z": "x.y"}``; collected at every
        #: nesting level (function-local imports are common here).
        self.imports: Dict[str, str] = {}
        #: ``from m import a as b`` → ``{"b": ("m", "a")}``.
        self.from_imports: Dict[str, Tuple[str, str]] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: Module-level registry dicts: bare name → value reference
        #: expressions (Name/Attribute nodes or FunctionInfo lambdas).
        self.dispatch: Dict[str, List[object]] = {}
        #: Module-level integer constants (``SPEC_VERSION = 2``).
        self.int_constants: Dict[str, Tuple[int, int]] = {}  # name -> (value, line)
        self._collect()

    # -- collection --------------------------------------------------------

    def _line_has_hot_marker(self, lineno: int) -> bool:
        for candidate in (lineno, lineno - 1):
            if 1 <= candidate <= len(self.lines) and \
                    HOT_MARKER in self.lines[candidate - 1]:
                return True
        return False

    def _resolve_relative(self, module: Optional[str], level: int) -> str:
        if level == 0:
            return module or ""
        base = self.modname.split(".")
        # ``from . import x`` inside a module strips the module's own
        # name plus ``level - 1`` package levels.
        base = base[: max(0, len(base) - level)]
        if module:
            base.append(module)
        return ".".join(base)

    def _collect(self) -> None:
        for node in self.file.nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    self.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                module = self._resolve_relative(node.module, node.level)
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.from_imports[local] = (module, alias.name)
        self._collect_scope(self.tree.body, prefix=self.modname, cls=None)
        self._collect_dispatch()
        for stmt in self.tree.body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name) \
                    and isinstance(stmt.value, ast.Constant) \
                    and type(stmt.value.value) is int:
                self.int_constants[stmt.targets[0].id] = (
                    stmt.value.value, stmt.lineno
                )

    def _collect_scope(
        self,
        body: Sequence[ast.stmt],
        prefix: str,
        cls: Optional[ClassInfo],
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}.{stmt.name}"
                info = FunctionInfo(
                    qualname=qualname,
                    name=stmt.name,
                    module=self,
                    node=stmt,
                    lineno=stmt.lineno,
                    cls=cls,
                    hot_marked=self._line_has_hot_marker(stmt.lineno),
                )
                self.functions[qualname] = info
                if cls is not None:
                    cls.methods[stmt.name] = info
                # Nested defs become callable symbols of their own; the
                # call-graph builder adds the implicit outer→inner edge.
                self._collect_scope(
                    stmt.body, prefix=f"{qualname}.<locals>", cls=None
                )
            elif isinstance(stmt, ast.ClassDef):
                info = ClassInfo(
                    qualname=f"{prefix}.{stmt.name}",
                    name=stmt.name,
                    module=self,
                    node=stmt,
                    base_names=[
                        chain[-1]
                        for base in stmt.bases
                        if (chain := attribute_chain(base))
                    ],
                )
                for member in stmt.body:
                    if isinstance(member, ast.AnnAssign) and isinstance(
                        member.target, ast.Name
                    ):
                        ann = member.annotation
                        is_classvar = (
                            chain := attribute_chain(
                                ann.value
                                if isinstance(ann, ast.Subscript)
                                else ann
                            )
                        ) and chain[-1] == "ClassVar"
                        if not is_classvar:
                            info.fields.append(member.target.id)
                self.classes[stmt.name] = info
                self._collect_scope(stmt.body, prefix=info.qualname, cls=info)

    def _dispatch_value(self, name: str, key: str, value: ast.expr) -> object:
        """A dispatch-table value as a resolvable reference."""
        if isinstance(value, ast.Lambda):
            qualname = f"{self.modname}.{name}[{key}]"
            info = FunctionInfo(
                qualname=qualname,
                name=f"{name}[{key}]",
                module=self,
                node=value,
                lineno=value.lineno,
            )
            self.functions[qualname] = info
            return info
        return value

    def _collect_dispatch(self) -> None:
        """Module-level ``{"name": factory}`` dicts and later
        ``TABLE["name"] = factory`` additions."""
        for stmt in self.tree.body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
                if isinstance(target, ast.Name) and isinstance(value, ast.Dict):
                    if value.keys and all(
                        isinstance(k, ast.Constant) and isinstance(k.value, str)
                        for k in value.keys
                    ) and all(
                        isinstance(v, (ast.Name, ast.Attribute, ast.Lambda))
                        for v in value.values
                    ):
                        self.dispatch[target.id] = [
                            self._dispatch_value(
                                target.id,
                                k.value,  # type: ignore[union-attr]
                                v,
                            )
                            for k, v in zip(value.keys, value.values)
                        ]
                elif isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name
                ) and target.value.id in self.dispatch and isinstance(
                    value, (ast.Name, ast.Attribute, ast.Lambda)
                ):
                    key = (
                        target.slice.value
                        if isinstance(target.slice, ast.Constant)
                        else "?"
                    )
                    self.dispatch[target.value.id].append(
                        self._dispatch_value(target.value.id, str(key), value)
                    )

    # -- queries -----------------------------------------------------------

    def is_rng_module(self) -> bool:
        return self.modname.endswith("util.rng")

    def in_checks_package(self) -> bool:
        parts = self.modname.split(".")
        return "checks" in parts


class Project:
    """Every analysed module plus cross-module indexes.

    ``paths`` holds files and directories to read, or files the engine
    already read and parsed. The call graph and the kernel class models
    are built on first use and shared by every pass over the project.
    """

    def __init__(self, paths: Sequence[Union[str, Path, SourceFile]]) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        for entry in paths:
            files = [entry] if isinstance(entry, SourceFile) else [
                SourceFile(path) for path in iter_python_files([entry])
            ]
            for file in files:
                modname, _root = module_name_for(Path(file.path))
                if modname not in self.modules:
                    self.modules[modname] = ModuleInfo(file, modname)
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.methods_by_name: Dict[str, List[FunctionInfo]] = {}
        self.classes_by_name: Dict[str, List[ClassInfo]] = {}
        for mod in self.modules.values():
            self.functions.update(mod.functions)
            for cls in mod.classes.values():
                self.classes[cls.qualname] = cls
                self.classes_by_name.setdefault(cls.name, []).append(cls)
                for method in cls.methods.values():
                    self.methods_by_name.setdefault(method.name, []).append(
                        method
                    )
        #: ``base bare name → direct subclasses`` (name-resolved — good
        #: enough inside one project where class names are unique).
        self.subclasses: Dict[str, List[ClassInfo]] = {}
        for cls in self.classes.values():
            for base in cls.base_names:
                self.subclasses.setdefault(base, []).append(cls)

    @cached_property
    def call_graph(self) -> CallGraph:
        """The project-wide call graph (see
        :func:`repro.checks.flow.callgraph.build_call_graph`)."""
        from repro.checks.flow.callgraph import build_call_graph

        return build_call_graph(self)

    @cached_property
    def class_models(self) -> Dict[str, ClassModel]:
        """Class qualname → slot-space model (see
        :func:`repro.checks.kernel.model.build_class_models`)."""
        from repro.checks.kernel.model import build_class_models

        return build_class_models(self)

    # -- symbol resolution -------------------------------------------------

    def resolve_name(
        self, mod: ModuleInfo, name: str
    ) -> Optional[object]:
        """A bare name in ``mod`` as a project symbol.

        Returns a :class:`FunctionInfo`, :class:`ClassInfo`, a
        :class:`ModuleInfo` (module alias) or ``None``. Package
        re-exports (``from repro.core import ULCClient`` where
        ``repro/core/__init__.py`` itself re-imports the class) are
        chased through the ``__init__`` import tables.
        """
        direct = self.functions.get(f"{mod.modname}.{name}")
        if direct is not None:
            return direct
        if name in mod.classes:
            return mod.classes[name]
        if name in mod.from_imports:
            source, original = mod.from_imports[name]
            found = self._resolve_in_module(source, original)
            if found is not None:
                return found
            sub = self.modules.get(
                f"{source}.{original}" if source else original
            )
            if sub is not None:
                return sub
        if name in mod.imports:
            return self.modules.get(mod.imports[name])
        return None

    def _resolve_in_module(
        self, modname: str, name: str, _depth: int = 0
    ) -> Optional[object]:
        """``name`` exported by ``modname``, following re-export chains
        through package ``__init__`` files (bounded depth)."""
        found: Optional[object] = self.functions.get(f"{modname}.{name}")
        if found is not None:
            return found
        target_mod = self.modules.get(modname)
        if target_mod is not None:
            if name in target_mod.classes:
                return target_mod.classes[name]
            # ``from pkg import submodule``
            sub = self.modules.get(f"{modname}.{name}")
            if sub is not None:
                return sub
            if _depth < 8 and name in target_mod.from_imports:
                source, original = target_mod.from_imports[name]
                return self._resolve_in_module(source, original, _depth + 1)
        return self.modules.get(f"{modname}.{name}")

    def class_family(self, cls: ClassInfo) -> List[ClassInfo]:
        """``cls`` plus every transitive subclass (name-resolved)."""
        seen: Dict[str, ClassInfo] = {}
        frontier = [cls]
        while frontier:
            current = frontier.pop()
            if current.qualname in seen:
                continue
            seen[current.qualname] = current
            frontier.extend(self.subclasses.get(current.name, []))
        return list(seen.values())

    def method_candidates(
        self, cls: ClassInfo, name: str
    ) -> List[FunctionInfo]:
        """Implementations ``obj.name()`` may dispatch to when ``obj`` is
        statically a ``cls``: the class's own (possibly inherited)
        definition plus every subclass override."""
        out: Dict[str, FunctionInfo] = {}
        for member in self.class_family(cls):
            found = self._method_on(member, name)
            if found is not None:
                out[found.qualname] = found
        return list(out.values())

    def _method_on(
        self, cls: ClassInfo, name: str, _depth: int = 0
    ) -> Optional[FunctionInfo]:
        if name in cls.methods:
            return cls.methods[name]
        if _depth > 8:
            return None
        for base in cls.base_names:
            for candidate in self.classes_by_name.get(base, []):
                found = self._method_on(candidate, name, _depth + 1)
                if found is not None:
                    return found
        return None


def as_project(
    target: Union[Project, Sequence[Union[str, Path]]]
) -> Project:
    """``target`` when it is a built project, else the project over
    those files and directories."""
    return target if isinstance(target, Project) else Project(target)


def annotation_class_names(annotation: Optional[ast.expr]) -> List[str]:
    """Bare class names referenced by a parameter annotation.

    Handles ``C``, ``"C"``, ``mod.C``, ``Optional[C]``, ``Union[A, B]``
    and one level of subscript nesting; anything else yields nothing.
    """
    if annotation is None:
        return []
    if isinstance(annotation, ast.Constant) and isinstance(
        annotation.value, str
    ):
        return [annotation.value.split(".")[-1].strip("'\"")]
    if isinstance(annotation, (ast.Name, ast.Attribute)):
        chain = attribute_chain(annotation)
        return [chain[-1]] if chain else []
    if isinstance(annotation, ast.Subscript):
        inner = annotation.slice
        elements = inner.elts if isinstance(inner, ast.Tuple) else [inner]
        out: List[str] = []
        for element in elements:
            out.extend(annotation_class_names(element))
        return out
    return []


def param_annotations(node: ast.AST) -> Dict[str, List[str]]:
    """Parameter name → possible bare class names, from annotations."""
    if isinstance(node, ast.Lambda):
        return {}
    out: Dict[str, List[str]] = {}
    args = node.args  # type: ignore[attr-defined]
    for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
        names = annotation_class_names(arg.annotation)
        if names:
            out[arg.arg] = names
    return out
