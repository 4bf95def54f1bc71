"""Slot-space model: which expressions denote slabs, lists and link
arrays, and which functions transfer slot ownership.

The typestate pass (:mod:`repro.checks.kernel.typestate`) interprets
functions over abstract *slot values*; this module answers the
resolution questions that interpretation needs:

- **roles**: is ``self._glru`` a list? over which slot space? is
  ``stack.prev`` one of its link arrays? (:func:`class_model`,
  :func:`resolve_role`);
- **summaries**: does ``self._release(slot)`` free its argument's slot?
  does ``self._alloc(...)`` return a freshly allocated one?
  (:func:`build_summaries`).

Everything is name-based and AST-only: a constructor call is recognised
by its bare name (``IntSlab`` / ``IntLinkedList``), so the model works
identically over the live tree and over synthetic fixture packages that
define their own toy kernels. Spaces are opaque string keys; two
expressions share a space iff their keys are equal, and every rule that
compares spaces (KER003) only fires when *both* sides resolve — an
unknown space never produces a finding.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.checks.flow.project import (
    ClassInfo,
    FunctionInfo,
    Project,
    attribute_chain,
)

#: Constructor names that create a slot allocator / a slab list.
SLAB_CTORS = ("IntSlab",)
LIST_CTORS = ("IntLinkedList",)

#: IntLinkedList methods that *link* their first argument.
LINKING_METHODS = (
    "push_front", "push_back", "insert_before", "insert_after",
)
#: IntLinkedList methods that *unlink* their first argument.
UNLINKING_METHODS = ("remove",)
#: IntLinkedList methods returning a freshly unlinked slot.
POPPING_METHODS = ("pop_back",)


@dataclass(frozen=True)
class SlabRole:
    """The expression denotes a slot allocator."""

    space: str


@dataclass(frozen=True)
class ListRole:
    """The expression denotes one linked list over ``space``."""

    space: str
    key: str


@dataclass(frozen=True)
class ArrayRole:
    """The expression denotes a list's ``prev``/``next`` link array."""

    space: str
    key: str


@dataclass(frozen=True)
class ListSetRole:
    """The expression denotes a collection of lists sharing ``space``
    (e.g. the uniLRUstack's ``self._levels``)."""

    space: str
    key: str


Role = object  # SlabRole | ListRole | ArrayRole | ListSetRole


def _ctor_name(call: ast.expr) -> Optional[str]:
    """Bare constructor name of a ``Call``, or ``None``."""
    if not isinstance(call, ast.Call):
        return None
    chain = attribute_chain(call.func)
    return chain[-1] if chain else None


@dataclass
class ClassModel:
    """Slot-space roles of one class's ``self.*`` attributes."""

    cls: ClassInfo
    attrs: Dict[str, Role] = field(default_factory=dict)

    def role_of(self, attr: str) -> Optional[Role]:
        return self.attrs.get(attr)


def _init_of(project: Project, cls: ClassInfo) -> Optional[FunctionInfo]:
    return project._method_on(cls, "__init__")


def class_model(project: Project, cls: ClassInfo) -> ClassModel:
    """Build the slot-space roles declared by a class's ``__init__``.

    Recognised assignment shapes (``X`` is the space key owner)::

        self.X = IntSlab()                      # slab, own space
        self.Y = IntLinkedList(self.X)          # list over X's space
        self.Y = IntLinkedList()                # list, own space
        self.Z = [IntLinkedList(self.X) ...]    # list set over X's space

    Locals holding slabs/lists inside ``__init__`` are tracked so the
    same shapes work through a temporary variable.
    """
    model = ClassModel(cls)
    init = _init_of(project, cls)
    if init is None or isinstance(init.node, ast.Lambda):
        return model
    owner = init.cls.name if init.cls is not None else cls.name
    local_roles: Dict[str, Role] = {}

    def space_of_arg(call: ast.Call) -> Optional[str]:
        if not call.args:
            return None
        arg = call.args[0]
        role = None
        if isinstance(arg, ast.Name):
            role = local_roles.get(arg.id)
        else:
            chain = attribute_chain(arg)
            if len(chain) == 2 and chain[0] == "self":
                role = model.attrs.get(chain[1])
        if isinstance(role, SlabRole):
            return role.space
        if isinstance(role, (ListRole, ListSetRole)):
            return role.space
        return None

    def role_for_value(value: ast.expr, key: str) -> Optional[Role]:
        name = _ctor_name(value)
        if name in SLAB_CTORS:
            return SlabRole(space=f"{owner}.{key}")
        if name in LIST_CTORS and isinstance(value, ast.Call):
            space = space_of_arg(value)
            return ListRole(
                space=space if space is not None else f"{owner}.{key}",
                key=f"{owner}.{key}",
            )
        elt: Optional[ast.expr] = None
        if isinstance(value, ast.ListComp):
            elt = value.elt
        elif isinstance(value, (ast.List, ast.Tuple)) and value.elts:
            elt = value.elts[0]
        if isinstance(elt, ast.Call) and _ctor_name(elt) in LIST_CTORS:
            space = space_of_arg(elt)
            return ListSetRole(
                space=space if space is not None else f"{owner}.{key}",
                key=f"{owner}.{key}",
            )
        return None

    for node in init.walk():
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target = node.target
        else:
            continue
        if isinstance(target, ast.Name):
            role = role_for_value(node.value, target.id)
            if role is not None:
                local_roles[target.id] = role
        elif isinstance(target, ast.Attribute) and isinstance(
            target.value, ast.Name
        ) and target.value.id == "self":
            role = role_for_value(node.value, target.attr)
            if role is None and isinstance(node.value, ast.Name):
                role = local_roles.get(node.value.id)
            if role is not None:
                model.attrs[target.attr] = role
    return model


def build_class_models(project: Project) -> Dict[str, ClassModel]:
    """Class qualname → slot-space model, for every project class."""
    return {
        cls.qualname: class_model(project, cls)
        for cls in project.classes.values()
    }


def resolve_role(
    expr: ast.expr,
    local_roles: Dict[str, Role],
    model: Optional[ClassModel],
) -> Optional[Role]:
    """The slot-space role an expression denotes, or ``None``.

    Handles local aliases (``stack = self._stack``), ``self.X``
    attribute chains, the derived accessors ``<list>.slab`` /
    ``<list>.prev`` / ``<list>.next``, and indexing into a list set
    (``self._levels[i]``).
    """
    if isinstance(expr, ast.Name):
        return local_roles.get(expr.id)
    if isinstance(expr, ast.Subscript):
        base = resolve_role(expr.value, local_roles, model)
        if isinstance(base, ListSetRole):
            return ListRole(space=base.space, key=f"{base.key}[]")
        return None
    if isinstance(expr, ast.Attribute):
        base: Optional[Role]
        if isinstance(expr.value, ast.Name) and expr.value.id == "self":
            if model is None:
                return None
            return model.role_of(expr.attr)
        base = resolve_role(expr.value, local_roles, model)
        if isinstance(base, ListRole):
            if expr.attr == "slab":
                return SlabRole(space=base.space)
            if expr.attr in ("prev", "next"):
                return ArrayRole(space=base.space, key=f"{base.key}.{expr.attr}")
        return None
    name = _ctor_name(expr)
    if name in SLAB_CTORS:
        return SlabRole(space=f"<local>@{expr.lineno}")
    if name in LIST_CTORS and isinstance(expr, ast.Call):
        if expr.args:
            arg_role = resolve_role(expr.args[0], local_roles, model)
            if isinstance(arg_role, SlabRole):
                return ListRole(space=arg_role.space, key=f"<local>@{expr.lineno}")
        return ListRole(
            space=f"<local>@{expr.lineno}", key=f"<local>@{expr.lineno}"
        )
    return None


@dataclass
class FunctionSummary:
    """One-hop ownership-transfer summary of a function.

    Attributes:
        frees: call-site positional-argument index → slot space freed
            through that argument (``self`` already stripped for
            methods).
        returns_alloc: slot space of a freshly allocated slot the
            function returns, or ``None``.
    """

    frees: Dict[int, str] = field(default_factory=dict)
    returns_alloc: Optional[str] = None


def _param_names(func: FunctionInfo) -> List[str]:
    if isinstance(func.node, ast.Lambda):
        return [a.arg for a in func.node.args.args]
    args = func.node.args  # type: ignore[attr-defined]
    return [a.arg for a in list(args.posonlyargs) + list(args.args)]


def summarize_function(
    project: Project,
    func: FunctionInfo,
    models: Dict[str, ClassModel],
) -> FunctionSummary:
    """Detect the two ownership-transfer shapes the consumers use:
    ``<slab>.free(param)`` in the body (the ``_release`` idiom) and
    ``return`` of a fresh ``<slab>.alloc()`` (the ``_alloc`` idiom)."""
    summary = FunctionSummary()
    if isinstance(func.node, ast.Lambda):
        return summary
    model = models.get(func.cls.qualname) if func.cls is not None else None
    params = _param_names(func)
    offset = 1 if func.cls is not None and params[:1] == ["self"] else 0
    positions = {
        name: idx - offset
        for idx, name in enumerate(params)
        if idx - offset >= 0
    }
    alloc_vars: Dict[str, str] = {}
    for node in func.walk():
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            target = resolve_role(node.func.value, {}, model)
            if isinstance(target, SlabRole):
                if node.func.attr == "free" and node.args and isinstance(
                    node.args[0], ast.Name
                ) and node.args[0].id in positions:
                    summary.frees[positions[node.args[0].id]] = target.space
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                isinstance(node.targets[0], ast.Name) and \
                isinstance(node.value, ast.Call) and \
                isinstance(node.value.func, ast.Attribute) and \
                node.value.func.attr == "alloc":
            target = resolve_role(node.value.func.value, {}, model)
            if isinstance(target, SlabRole):
                alloc_vars[node.targets[0].id] = target.space
        if isinstance(node, ast.Return) and node.value is not None:
            if isinstance(node.value, ast.Name) and \
                    node.value.id in alloc_vars:
                summary.returns_alloc = alloc_vars[node.value.id]
            elif isinstance(node.value, ast.Call) and isinstance(
                node.value.func, ast.Attribute
            ) and node.value.func.attr == "alloc":
                target = resolve_role(node.value.func.value, {}, model)
                if isinstance(target, SlabRole):
                    summary.returns_alloc = target.space
    return summary


def build_summaries(
    project: Project, models: Dict[str, ClassModel]
) -> Dict[str, FunctionSummary]:
    """Function qualname → ownership summary, for every project function."""
    out: Dict[str, FunctionSummary] = {}
    for qualname, func in project.functions.items():
        summary = summarize_function(project, func, models)
        if summary.frees or summary.returns_alloc is not None:
            out[qualname] = summary
    return out


def method_summary(
    project: Project,
    models: Dict[str, ClassModel],
    summaries: Dict[str, FunctionSummary],
    func: FunctionInfo,
    call: ast.Call,
) -> Optional[FunctionSummary]:
    """Summary of the function a call dispatches to, one hop only.

    Resolves ``self.m(...)`` against the caller's own class (including
    inherited methods) and bare-name calls against the caller's module.
    """
    if isinstance(call.func, ast.Attribute):
        chain = attribute_chain(call.func)
        if len(chain) == 2 and chain[0] == "self" and func.cls is not None:
            target = project._method_on(func.cls, chain[1])
            if target is not None:
                return summaries.get(target.qualname)
        return None
    if isinstance(call.func, ast.Name):
        target = func.module.functions.get(
            f"{func.module.modname}.{call.func.id}"
        )
        if target is not None:
            return summaries.get(target.qualname)
    return None
