"""The abstract cost interpreter behind ``repro check --bounds``.

For every project function the interpreter infers a symbolic cost on
the :class:`repro.checks.bounds.cost.Cost` lattice:

- loops are mapped to the structure they iterate — ``IntLinkedList``
  chains, slab arrays, dicts, parameter scans — via the kernel pass's
  slot-space role resolution, with config-bounded iterations
  (``range(self.num_levels)``, the per-level list set) classified as
  constant;
- calls compose interprocedurally over the targets the ``--deep`` call
  graph resolved for each call (virtual dispatch takes the worst
  implementation);
  the whole table is solved as a monotone fixpoint, so loop-resident
  recursion escalates to the lattice top instead of diverging;
- a function with a valid ``# repro: bound`` annotation is an accepted
  obligation: callers account it as unit cost (the debt is recorded
  once, at the justified site).

The *hot set* seeds from the protocol's per-reference entry points —
policy ``access``/``evict``/``victim`` (budget ``O(1)``), the hit-run
entries ``hit_run``/``access_hit_run*`` and the ``_drive*``/``_span*``
engine loops (budget ``O(n)``, linear in the run/trace), plus anything
marked ``# repro: hot`` — and propagates from an ``O(n)``-budget entry
through loop-resident call sites, from an ``O(1)``-budget function
through every call site, stopping at a declared bound. Rules:

- **BND001** — a hot function's inferred cost exceeds its declared or
  default budget (the dominating loop nest is attached as finding
  steps, rendered as SARIF ``codeFlows``);
- **BND002** — a ``while`` in a hot function walks a linked chain with
  no structural decrease (no cursor advance, no removal, no break);
- **BND003** — a per-reference allocation (a ``list``/``dict``/
  ``set``/``frozenset``/``sorted`` call or a comprehension) or an
  attribute chain of three or more names re-chased inside a loop, in a
  hot function without a declared bound or in anything a ``# repro:
  hot`` function reaches per reference (declared bounds or not);
- **BND004** — a stale, invalid, unjustified or orphaned
  ``# repro: bound`` annotation.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.checks.bounds.cost import Bound, Cost, bounds_by_line, combine, scale
from repro.checks.findings import Finding
from repro.checks.flow.project import (
    FunctionInfo,
    ModuleInfo,
    Project,
    attribute_chain,
    loop_nested_ids,
)
from repro.checks.kernel.batch import FAST_PATH_NAMES
from repro.checks.kernel.model import (
    ArrayRole,
    ClassModel,
    ListRole,
    ListSetRole,
    SlabRole,
    resolve_role,
)

#: Per-reference protocol entry points: one call serves one reference,
#: so the default budget is constant time. The hit-run entries
#: (:data:`repro.checks.kernel.batch.FAST_PATH_NAMES`) serve a whole
#: reference batch per call, so their default budget is linear.
ENTRY_CONST_METHODS = {"access", "evict", "victim"}

#: Module-level drive-loop prefixes, recognised in ``*.engine`` modules
#: (``repro.sim.engine``'s ``_drive*`` / ``_span*`` family).
ENGINE_ENTRY_PREFIXES = ("_drive", "_span")

#: Names that denote configuration-sized quantities (a handful of
#: cache levels / MQ queues / clients) or level indices bounded by
#: them, not data-sized ones.
BOUNDED_NAMES = {
    "num_levels", "num_queues", "_num_levels", "_num_queues",
    "num_clients", "level", "out_level", "level_status", "hit_level",
}

#: Attribute/local names that hold per-level or per-queue collections:
#: iterating them is bounded by the hierarchy geometry. ``_lists`` is
#: the slab's attached-list set (one per level plus the global list);
#: ``demotions``/``evicted`` are per-event records, bounded by the
#: demotion cascade's depth.
#: ``overflow``/``dropped`` are single-insertion overflow lists (at
#: most one block per insert); ``holders`` is a per-block holder set
#: bounded by the client count.
BOUNDED_COLLECTIONS = {
    "levels", "_levels", "queues", "_queues",
    "capacities", "_capacities", "yardsticks", "_yardsticks",
    "_lists", "demotions", "evicted",
    "overflow", "dropped", "holders",
}

#: Iterable wrappers that preserve their argument's size class.
_SIZE_PRESERVING_WRAPPERS = {
    "enumerate", "reversed", "iter", "memoryview", "zip", "sorted",
    "list", "tuple",
}

#: Unresolved calls with a known linear cost when given an iterable.
_LINEAR_BUILTINS = {"list", "set", "dict", "frozenset", "tuple", "sum"}

#: Builtin container builders BND003 flags (``tuple`` is exempt: the
#: protocol's event tuples are part of its return contract).
ALLOCATING_BUILTINS = ("list", "dict", "set", "frozenset", "sorted")

#: Attribute chains at or past this depth inside a hot loop get flagged.
ATTRIBUTE_CHASE_DEPTH = 3

#: Removal/advance method names that count as structural decrease for
#: BND002's chain-walk check.
_DECREASING_METHODS = {
    "remove", "pop", "pop_front", "pop_back", "popleft", "popitem",
    "free", "clear", "discard",
}

_MAX_TRACE = 12


@dataclass(frozen=True)
class CostW:
    """A cost plus the witness trace that produced it."""

    cost: Cost
    steps: Tuple[Tuple[int, str], ...] = ()


_ZERO = CostW(Cost.CONST, ())


def _join(a: CostW, b: CostW) -> CostW:
    """Sequential composition keeping the dominating witness."""
    return b if b.cost > a.cost else a


def _scaled_loop(
    lineno: int, desc: str, multiplier: Cost, body: CostW
) -> CostW:
    """Loop composition with the loop line prepended to the witness."""
    total = scale(multiplier, body.cost)
    if total == Cost.CONST:
        return _ZERO
    step = (lineno, f"loop over {desc} — {multiplier.label} iterations")
    return CostW(total, ((step,) + body.steps)[:_MAX_TRACE])


def _is_const_name(name: str) -> bool:
    """``UPPER_CASE`` module constants are config, not data."""
    return name.isupper() or name in BOUNDED_NAMES


_NO_EXTRA: frozenset = frozenset()


def _bounded_expr(node: ast.AST, extra: Set[str] = _NO_EXTRA) -> bool:
    """Every quantity in the expression is config-sized or literal.
    ``extra`` holds locally proven-bounded names."""
    if isinstance(node, ast.Constant):
        return node.value is None or isinstance(node.value, (int, bool))
    if isinstance(node, ast.Name):
        return _is_const_name(node.id) or node.id in extra
    if isinstance(node, ast.Attribute):
        return node.attr in BOUNDED_NAMES or _is_const_name(node.attr)
    if isinstance(node, ast.BinOp):
        return _bounded_expr(node.left, extra) and _bounded_expr(
            node.right, extra
        )
    if isinstance(node, ast.UnaryOp):
        return _bounded_expr(node.operand, extra)
    if isinstance(node, ast.IfExp):
        return _bounded_expr(node.body, extra) and _bounded_expr(
            node.orelse, extra
        )
    return False


def _mentions_bounded(test: ast.expr) -> bool:
    """Whether the condition involves a config-sized bound by name."""
    for node in ast.walk(test):
        if isinstance(node, ast.Name) and node.id in BOUNDED_NAMES:
            return True
        if isinstance(node, ast.Attribute) and node.attr in BOUNDED_NAMES:
            return True
    return False


def _has_structural_decrease(node: ast.While) -> bool:
    """Whether the loop makes progress: a condition variable is
    reassigned, an element is removed, or the body can exit."""
    cond_names = {
        n.id for n in ast.walk(node.test) if isinstance(n, ast.Name)
    }
    cond_attrs = {
        n.attr for n in ast.walk(node.test) if isinstance(n, ast.Attribute)
    }

    def hits_condition(target: ast.AST) -> bool:
        for leaf in ast.walk(target):
            if isinstance(leaf, ast.Name) and leaf.id in cond_names:
                return True
            if isinstance(leaf, ast.Attribute) and leaf.attr in cond_attrs:
                return True
        return False

    for stmt in node.body:
        for child in ast.walk(stmt):
            if isinstance(child, (ast.Break, ast.Return, ast.Raise)):
                return True
            if isinstance(child, ast.Assign) and any(
                hits_condition(t) for t in child.targets
            ):
                return True
            if isinstance(child, ast.AugAssign) and hits_condition(
                child.target
            ):
                return True
            if isinstance(child, ast.Call):
                chain = attribute_chain(child.func)
                if chain and chain[-1] in _DECREASING_METHODS:
                    return True
                if len(chain) > 1 and chain[0] == "self":
                    # A self-method call can shrink the structure the
                    # condition reads (e.g. a helper that pops the
                    # tail); trust it as potential progress.
                    return True
    return False


class BoundsChecker:
    """One run of the cost interpreter over a project."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.graph = project.call_graph
        self.models = project.class_models
        #: function qualname → attached annotation (valid or not).
        self.annotations: Dict[str, Bound] = {}
        #: modname → annotation linenos claimed by some function.
        self._attached: Dict[str, Set[int]] = {}
        self._module_bounds: Dict[str, Dict[int, Bound]] = {}
        self._collect_annotations()
        self._role_cache: Dict[str, Dict[str, object]] = {}
        self._accumulator_cache: Dict[str, Set[str]] = {}
        self._bounded_local_cache: Dict[str, Set[str]] = {}
        #: Table entries read by the evaluation in progress.
        self._reads: Set[str] = set()
        self.table: Dict[str, CostW] = {}
        self._solve()
        #: qualname → (function, budget, why-hot).
        self.hot = self._reach({
            func.qualname: (func,) + budget
            for func in self.project.functions.values()
            if (budget := self.entry_budget(func)) is not None
        }, stop_at_bounds=True)
        self.findings: List[Finding] = []

    # -- annotations -------------------------------------------------------

    def _collect_annotations(self) -> None:
        for mod in self.project.modules.values():
            table = bounds_by_line(mod.file.comments)
            self._module_bounds[mod.modname] = table
            self._attached[mod.modname] = set()
            if not table:
                continue
            lines = mod.lines
            for func in mod.functions.values():
                # The annotation sits on the def line, a decorator
                # line, or anywhere in the contiguous comment block
                # directly above them (justifications wrap).
                start = min(
                    [func.lineno]
                    + [d.lineno for d in func.node.decorator_list]
                )
                candidates = [func.lineno, start]
                lineno = start - 1
                while lineno >= 1 and lines[lineno - 1].lstrip().startswith(
                    "#"
                ):
                    candidates.append(lineno)
                    lineno -= 1
                for lineno in candidates:
                    bound = table.get(lineno)
                    if bound is not None:
                        self.annotations[func.qualname] = bound
                        self._attached[mod.modname].add(lineno)
                        break

    def _declared(self, qualname: str) -> Optional[Bound]:
        bound = self.annotations.get(qualname)
        if bound is not None and bound.valid:
            return bound
        return None

    # -- environments ------------------------------------------------------

    def _model_of(self, func: FunctionInfo) -> Optional[ClassModel]:
        if func.cls is None:
            return None
        return self.models.get(func.cls.qualname)

    def _roles(self, func: FunctionInfo) -> Dict[str, object]:
        """Flow-insensitive local slot-space roles (``stack =
        self._stack`` style aliases)."""
        cached = self._role_cache.get(func.qualname)
        if cached is not None:
            return cached
        model = self._model_of(func)
        roles: Dict[str, object] = {}
        for node in func.walk():
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                role = resolve_role(node.value, roles, model)
                if role is not None:
                    roles[node.targets[0].id] = role
        self._role_cache[func.qualname] = roles
        return roles

    def _accumulators(self, func: FunctionInfo) -> Set[str]:
        """Local names initialised as empty containers: materializing
        one (``tuple(out)``) is dominated by the cost of filling it,
        which the loop interpretation already counted."""
        cached = self._accumulator_cache.get(func.qualname)
        if cached is not None:
            return cached
        names: Set[str] = set()
        for node in func.own_nodes():
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                continue
            value = node.value
            if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.Tuple)):
                names.add(node.targets[0].id)
            elif isinstance(value, ast.Call) and isinstance(
                value.func, ast.Name
            ) and value.func.id in _LINEAR_BUILTINS and not value.args:
                names.add(node.targets[0].id)
        self._accumulator_cache[func.qualname] = names
        return names

    def _bounded_locals(self, func: FunctionInfo) -> Set[str]:
        """Local names provably config-bounded: every binding is a
        bounded expression, an increment by one, or the target of a
        loop over a config-bounded iterable. Solved as a small
        monotone fixpoint (bounded names may depend on each other)."""
        cached = self._bounded_local_cache.get(func.qualname)
        if cached is not None:
            return cached
        bset: Set[str] = set()
        # Publish the live set up front: classify_iterable re-enters
        # this method for loop targets, and the partial (monotone)
        # set is a sound under-approximation.
        self._bounded_local_cache[func.qualname] = bset
        bindings: Dict[str, List[ast.AST]] = {}
        handled: Set[int] = set()
        for node in func.own_nodes():
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                bindings.setdefault(node.targets[0].id, []).append(
                    node.value
                )
                handled.add(id(node.targets[0]))
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ) and node.value is not None:
                bindings.setdefault(node.target.id, []).append(node.value)
                handled.add(id(node.target))
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.target, ast.Name
            ):
                bindings.setdefault(node.target.id, []).append(node.value)
                handled.add(id(node.target))
            elif isinstance(node, (ast.For, ast.AsyncFor)) and isinstance(
                node.target, ast.Name
            ):
                bindings.setdefault(node.target.id, []).append(node)
                handled.add(id(node.target))
        poisoned: Set[str] = set()
        for node in func.own_nodes():
            if isinstance(node, ast.Name) and isinstance(
                node.ctx, ast.Store
            ) and id(node) not in handled:
                poisoned.add(node.id)
        for _ in range(4):
            changed = False
            for name, values in bindings.items():
                if name in bset or name in poisoned:
                    continue
                ok = True
                for value in values:
                    if isinstance(value, (ast.For, ast.AsyncFor)):
                        if self.classify_iterable(
                            func, value.iter
                        )[0] != Cost.CONST:
                            ok = False
                            break
                    elif not _bounded_expr(value, bset):
                        ok = False
                        break
                if ok:
                    bset.add(name)
                    changed = True
            if not changed:
                break
        return bset

    # -- loop classification -----------------------------------------------

    def classify_iterable(
        self, func: FunctionInfo, expr: ast.expr
    ) -> Tuple[Cost, str]:
        """Size class of iterating ``expr`` once, with a description."""
        model = self._model_of(func)
        roles = self._roles(func)
        role = resolve_role(expr, roles, model)
        if isinstance(role, ListSetRole):
            return Cost.CONST, "the per-level list set (config-bounded)"
        if isinstance(role, ListRole):
            return Cost.LINEAR, "an IntLinkedList chain"
        if isinstance(role, (ArrayRole, SlabRole)):
            return Cost.LINEAR, "a slab array"
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            return Cost.CONST, "a literal display"
        if isinstance(expr, ast.Constant):
            return Cost.CONST, "a constant"
        if isinstance(expr, ast.Name):
            if expr.id in BOUNDED_COLLECTIONS or _is_const_name(expr.id) \
                    or expr.id in self._bounded_locals(func):
                return Cost.CONST, f"'{expr.id}' (config-bounded)"
            if expr.id in self._accumulators(func):
                # Walking a container this function filled is dominated
                # by the (already counted) cost of filling it; on a
                # max-lattice that contributes nothing new.
                return Cost.CONST, f"'{expr.id}' (local accumulator)"
            return Cost.LINEAR, f"'{expr.id}'"
        if isinstance(expr, ast.Attribute):
            if expr.attr in BOUNDED_COLLECTIONS:
                return Cost.CONST, f"'.{expr.attr}' (config-bounded)"
            chain = attribute_chain(expr)
            label = ".".join(chain) if chain else expr.attr
            return Cost.LINEAR, f"'{label}'"
        if isinstance(expr, ast.Call):
            chain = attribute_chain(expr.func)
            name = chain[-1] if chain else "<call>"
            if name == "range":
                local = self._bounded_locals(func)
                if expr.args and all(
                    _bounded_expr(arg, local) for arg in expr.args
                ):
                    return Cost.CONST, "a config-bounded range"
                return Cost.LINEAR, "a range scan"
            if name == "insert" and len(chain) > 1:
                # A policy insert returns the blocks it displaced: one
                # admission evicts O(1) blocks (amortized), regardless
                # of structure size.
                return Cost.CONST, "the per-insert eviction set"
            if name in ("items", "values", "keys") and len(chain) > 1:
                receiver = ".".join(chain[:-1])
                if chain[-2] in BOUNDED_COLLECTIONS:
                    return Cost.CONST, f"'{receiver}' (config-bounded)"
                return Cost.LINEAR, f"a dict scan of '{receiver}'"
            if name in _SIZE_PRESERVING_WRAPPERS and expr.args:
                inner_cost, inner_desc = self.classify_iterable(
                    func, expr.args[0]
                )
                for extra in expr.args[1:]:
                    extra_cost, _ = self.classify_iterable(func, extra)
                    inner_cost = combine(inner_cost, extra_cost)
                return inner_cost, f"{name}({inner_desc})"
            return Cost.LINEAR, f"the iterator from {name}(...)"
        if isinstance(expr, ast.Subscript):
            # One member of a per-level list set is still a full
            # structure; otherwise a subscript/slice keeps the base's
            # size class at worst.
            if isinstance(
                resolve_role(expr.value, roles, model), ListSetRole
            ):
                return Cost.LINEAR, "an IntLinkedList chain"
            base_cost, base_desc = self.classify_iterable(func, expr.value)
            return combine(base_cost, Cost.LINEAR), f"{base_desc}[...]"
        return Cost.LINEAR, "an unrecognised iterable"

    def classify_while(
        self, func: FunctionInfo, node: ast.While
    ) -> Tuple[Cost, str]:
        """Iteration class of a ``while`` from its condition."""
        if isinstance(node.test, ast.Constant) and node.test.value:
            # ``while True`` terminates via break/return; how many
            # iterations that takes is data-dependent.
            return Cost.LINEAR, "a data-dependent while condition"
        if _bounded_expr(node.test, self._bounded_locals(func)) \
                or _mentions_bounded(node.test):
            return Cost.CONST, "a config-bounded while condition"
        if self._chain_walk_exprs(func, [node.test]):
            return Cost.LINEAR, "a linked-chain walk"
        return Cost.LINEAR, "a data-dependent while condition"

    def _chain_walk_exprs(
        self, func: FunctionInfo, nodes: Sequence[ast.AST]
    ) -> bool:
        """Whether any expression under ``nodes`` touches a linked
        chain (a list/array role or a ``prev``/``next`` link array)."""
        model = self._model_of(func)
        roles = self._roles(func)
        for root in nodes:
            for node in ast.walk(root):
                if isinstance(node, (ast.Name, ast.Attribute, ast.Subscript)):
                    role = resolve_role(node, roles, model)
                    if isinstance(role, (ListRole, ArrayRole)):
                        return True
                if isinstance(node, ast.Subscript) and isinstance(
                    node.value, (ast.Name, ast.Attribute)
                ):
                    chain = attribute_chain(node.value)
                    if chain and chain[-1] in ("prev", "next",
                                               "gprev", "gnext"):
                        return True
        return False

    # -- call costs --------------------------------------------------------

    def _callee_cost(self, callee: FunctionInfo) -> CostW:
        if callee.module.in_checks_package():
            return _ZERO
        if self._declared(callee.qualname) is not None:
            # Accepted obligation: unit cost for the caller, the debt
            # is recorded at the annotated function itself.
            return _ZERO
        self._reads.add(callee.qualname)
        return self.table.get(callee.qualname, _ZERO)

    def _call_cost(self, func: FunctionInfo, call: ast.Call) -> CostW:
        targets = self.graph.targets[call]
        if targets:
            worst = _ZERO
            worst_target: Optional[FunctionInfo] = None
            for target in targets:
                candidate = self._callee_cost(target)
                if candidate.cost > worst.cost:
                    worst = candidate
                    worst_target = target
            if worst_target is None:
                return _ZERO
            step = (
                call.lineno,
                f"calls {worst_target.display} — {worst.cost.label}",
            )
            return CostW(worst.cost, (step,))
        chain = attribute_chain(call.func)
        name = chain[-1] if chain else None
        bounded_arg = len(call.args) == 1 and (
            _bounded_expr(call.args[0], self._bounded_locals(func))
            or (
                isinstance(call.args[0], ast.Name)
                and call.args[0].id in BOUNDED_COLLECTIONS
            )
            or (
                isinstance(call.args[0], ast.Attribute)
                and call.args[0].attr in BOUNDED_COLLECTIONS
            )
        )
        # Materializing a locally filled accumulator is dominated by
        # the (already counted) cost of filling it — but sorting one is
        # not (O(k log k) vs the O(k) fill), so sorted() stays priced.
        accumulator_arg = (
            len(call.args) == 1
            and isinstance(call.args[0], ast.Name)
            and call.args[0].id in self._accumulators(func)
        )
        if name == "sorted" and call.args:
            if bounded_arg:
                return _ZERO
            return CostW(
                Cost.NLOGN, ((call.lineno, "sorted(...) — O(n log n)"),)
            )
        if name in _LINEAR_BUILTINS and call.args:
            if bounded_arg or accumulator_arg:
                return _ZERO
            return CostW(
                Cost.LINEAR,
                ((call.lineno, f"{name}(...) materialization — O(n)"),),
            )
        if name in ("min", "max", "sum") and len(call.args) == 1:
            return CostW(
                Cost.LINEAR, ((call.lineno, f"{name}(iterable) — O(n)"),)
            )
        if name in ("extend", "update") and call.args and not all(
            _bounded_expr(arg, self._bounded_locals(func))
            or (
                isinstance(arg, ast.Name)
                and (
                    arg.id in BOUNDED_COLLECTIONS
                    or arg.id in self._accumulators(func)
                )
            )
            or (
                isinstance(arg, ast.Attribute)
                and arg.attr in BOUNDED_COLLECTIONS
            )
            for arg in call.args
        ):
            return CostW(
                Cost.LINEAR,
                ((call.lineno, f"{name}(...) bulk copy — O(n)"),),
            )
        return _ZERO

    def _expr_cost(self, func: FunctionInfo, *exprs: ast.AST) -> CostW:
        """Cost of evaluating expressions: calls plus comprehensions."""
        out = _ZERO
        stack: List[ast.AST] = [e for e in exprs if e is not None]
        while stack:
            node = stack.pop()
            if isinstance(
                node,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                 ast.Lambda),
            ):
                continue
            if isinstance(node, ast.Call):
                out = _join(out, self._call_cost(func, node))
            elif isinstance(
                node,
                (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp),
            ):
                mult = Cost.CONST
                desc = "an unrecognised iterable"
                for gen in node.generators:
                    gen_cost, gen_desc = self.classify_iterable(
                        func, gen.iter
                    )
                    if mult == Cost.CONST:
                        desc = gen_desc
                    mult = scale(mult, gen_cost)
                    out = _join(out, self._expr_cost(func, gen.iter))
                inner: List[ast.AST] = (
                    [node.key, node.value]
                    if isinstance(node, ast.DictComp)
                    else [node.elt]
                )
                inner.extend(
                    cond for gen in node.generators for cond in gen.ifs
                )
                body = self._expr_cost(func, *inner)
                comp = _scaled_loop(
                    node.lineno, f"{desc} (comprehension)", mult, body
                )
                out = _join(out, comp)
                continue  # generators already handled above
            stack.extend(ast.iter_child_nodes(node))
        return out

    # -- statement interpretation ------------------------------------------

    def _block_cost(
        self, func: FunctionInfo, stmts: Sequence[ast.stmt]
    ) -> CostW:
        out = _ZERO
        for stmt in stmts:
            out = _join(out, self._stmt_cost(func, stmt))
        return out

    def _stmt_cost(self, func: FunctionInfo, stmt: ast.stmt) -> CostW:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return _ZERO  # separate functions / class bodies
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            mult, desc = self.classify_iterable(func, stmt.iter)
            if (
                mult > Cost.CONST
                and isinstance(stmt.target, ast.Name)
                and stmt.target.id in BOUNDED_COLLECTIONS
            ):
                # Iterating into an overflow/dropped-style target: the
                # producer yields at most a config-bounded handful.
                mult, desc = Cost.CONST, (
                    f"a bounded overflow set ({stmt.target.id})"
                )
            body = _join(
                self._block_cost(func, stmt.body),
                self._block_cost(func, stmt.orelse),
            )
            return _join(
                self._expr_cost(func, stmt.iter),
                _scaled_loop(stmt.lineno, desc, mult, body),
            )
        if isinstance(stmt, ast.While):
            mult, desc = self.classify_while(func, stmt)
            body = _join(
                self._block_cost(func, stmt.body),
                self._block_cost(func, stmt.orelse),
            )
            return _join(
                self._expr_cost(func, stmt.test),
                _scaled_loop(stmt.lineno, desc, mult, body),
            )
        if isinstance(stmt, ast.If):
            branches = _join(
                self._block_cost(func, stmt.body),
                self._block_cost(func, stmt.orelse),
            )
            return _join(self._expr_cost(func, stmt.test), branches)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            out = self._expr_cost(
                func, *[item.context_expr for item in stmt.items]
            )
            return _join(out, self._block_cost(func, stmt.body))
        if isinstance(stmt, ast.Try):
            out = self._block_cost(func, stmt.body)
            for handler in stmt.handlers:
                out = _join(out, self._block_cost(func, handler.body))
            out = _join(out, self._block_cost(func, stmt.orelse))
            return _join(out, self._block_cost(func, stmt.finalbody))
        return self._expr_cost(func, stmt)

    def eval_function(self, func: FunctionInfo) -> CostW:
        return self._block_cost(func, func.body())

    def _solve(self) -> None:
        """Monotone fixpoint over the whole function table.

        Round-robin sweeps in project order. A function is evaluated
        again only when a table entry it read at its last evaluation
        (:meth:`_callee_cost` is the only reader) has grown since:
        evaluation is deterministic, so that evaluation would return
        the same value and change nothing.
        """
        self.table = {q: _ZERO for q in self.project.functions}
        #: qualname → (growths before its last evaluation, entries read).
        last_eval: Dict[str, Tuple[int, Set[str]]] = {}
        #: qualname → growth count when its entry last grew.
        grew_at: Dict[str, int] = {}
        growths = 0
        # The lattice height bounds how often any one entry can grow;
        # one extra round detects stability.
        for _ in range(len(Cost) + 1):
            changed = False
            for qualname, func in self.project.functions.items():
                if func.module.in_checks_package():
                    continue
                last = last_eval.get(qualname)
                if last is not None and all(
                    grew_at.get(read, 0) <= last[0] for read in last[1]
                ):
                    continue
                self._reads = set()
                new = self.eval_function(func)
                last_eval[qualname] = (growths, self._reads)
                if new.cost > self.table[qualname].cost:
                    self.table[qualname] = new
                    growths += 1
                    grew_at[qualname] = growths
                    changed = True
            if not changed:
                break

    # -- hot set -----------------------------------------------------------

    def entry_budget(
        self, func: FunctionInfo
    ) -> Optional[Tuple[Cost, str]]:
        """Default budget of an entry point, or ``None`` if not one."""
        if func.module.in_checks_package():
            return None
        if func.cls is not None and func.name in ENTRY_CONST_METHODS:
            return Cost.CONST, f"per-reference entry point '{func.name}'"
        if func.name in FAST_PATH_NAMES:
            return Cost.LINEAR, f"batch entry point '{func.name}'"
        if func.hot_marked:
            return Cost.LINEAR, "marked '# repro: hot'"
        if func.cls is None and func.name.startswith(
            ENGINE_ENTRY_PREFIXES
        ) and func.module.modname.split(".")[-1] == "engine":
            return Cost.LINEAR, f"engine drive loop '{func.name}'"
        return None

    def _reach(
        self,
        roots: Dict[str, Tuple[FunctionInfo, Cost, str]],
        stop_at_bounds: bool,
    ) -> Dict[str, Tuple[FunctionInfo, Cost, str]]:
        """``roots`` plus everything they call per reference, as
        qualname → (function, budget, why-hot).

        From a linear-budget root only loop-resident calls run per
        reference; from a constant-budget function every call does.
        With ``stop_at_bounds`` a declared bound accepts the whole
        subtree's cost at the justified bound, and hotness stops there.
        """
        hot = dict(roots)
        frontier = list(roots)
        while frontier:
            current = frontier.pop(0)
            info, budget, _why = hot[current]
            if stop_at_bounds and self._declared(current) is not None:
                continue
            for site in self.graph.successors(current):
                # Only roots carry a linear budget.
                if budget == Cost.LINEAR and not site.in_loop:
                    continue
                if site.callee in hot:
                    continue
                callee = self.project.functions.get(site.callee)
                if callee is None or callee.module.in_checks_package():
                    continue
                hot[site.callee] = (
                    callee,
                    Cost.CONST,
                    f"called per-reference from hot {info.display}",
                )
                frontier.append(site.callee)
        return hot

    # -- findings ----------------------------------------------------------

    def _add(
        self,
        mod: ModuleInfo,
        lineno: int,
        col: int,
        rule: str,
        message: str,
        steps: Tuple[Tuple[int, str], ...] = (),
    ) -> None:
        self.findings.append(Finding(
            path=mod.path, line=lineno, col=col, rule=rule,
            message=message, steps=steps[:_MAX_TRACE],
        ))

    def check_budgets(self) -> None:
        """BND001: hot functions over their declared/default budget."""
        for qualname in sorted(self.hot):
            func, budget, why = self.hot[qualname]
            if self.annotations.get(qualname) is not None:
                continue  # accepted obligation (BND004 keeps it honest)
            inferred = self.table.get(qualname, _ZERO)
            if inferred.cost <= budget:
                continue
            self._add(
                func.module, func.lineno,
                getattr(func.node, "col_offset", 0),
                "BND001",
                (
                    f"hot path {func.display} is {inferred.cost.label} "
                    f"but its budget is {budget.label} ({why}); "
                    f"restructure the scan or declare it with "
                    f"'# repro: bound {inferred.cost.label} -- "
                    f"<justification>'"
                ),
                steps=((func.lineno, f"{func.display} — inferred "
                                     f"{inferred.cost.label}"),)
                + inferred.steps,
            )

    def check_chain_walks(self) -> None:
        """BND002: unbounded chain walks in hot functions."""
        for qualname in sorted(self.hot):
            func, _budget, _why = self.hot[qualname]
            for node in func.own_nodes():
                if not isinstance(node, ast.While):
                    continue
                if not self._chain_walk_exprs(
                    func, [node.test] + list(node.body)
                ):
                    continue
                if _has_structural_decrease(node):
                    continue
                self._add(
                    func.module, node.lineno, node.col_offset, "BND002",
                    (
                        f"while loop in hot {func.display} walks a "
                        f"linked chain with no structural decrease — no "
                        f"cursor advance, element removal or early exit "
                        f"on any path, so the walk is unbounded"
                    ),
                    steps=(
                        (node.lineno, "condition re-reads the chain"),
                        (node.body[0].lineno,
                         "body neither advances a cursor nor removes "
                         "an element"),
                    ),
                )

    def check_hot_allocations(self) -> None:
        """BND003: allocations and attribute chasing per reference, in
        every function a ``# repro: hot`` root reaches and every hot
        function without a declared bound."""
        scan = self._reach({
            func.qualname: (func, Cost.LINEAR, "marked '# repro: hot'")
            for func in self.project.functions.values()
            if func.hot_marked and not func.module.in_checks_package()
        }, stop_at_bounds=False)
        for qualname, entry in self.hot.items():
            if qualname not in scan and self._declared(qualname) is None:
                scan[qualname] = entry
        for qualname in sorted(scan):
            func, _budget, why = scan[qualname]
            nodes = func.own_nodes()
            in_loop = loop_nested_ids(nodes)
            # Only the outermost attribute of a chain reports.
            inner = {
                id(node.value) for node in nodes
                if isinstance(node, ast.Attribute)
            }
            for node in nodes:
                what: Optional[str] = None
                if isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Name
                ) and node.func.id in ALLOCATING_BUILTINS:
                    what = f"{node.func.id}(...) allocation"
                elif isinstance(node, ast.ListComp):
                    what = "list comprehension"
                elif isinstance(node, ast.SetComp):
                    what = "set comprehension"
                elif isinstance(node, ast.DictComp):
                    what = "dict comprehension"
                elif isinstance(node, ast.GeneratorExp):
                    what = "generator expression"
                elif isinstance(node, ast.Attribute) and id(node) in in_loop \
                        and id(node) not in inner \
                        and isinstance(node.ctx, ast.Load):
                    chain = attribute_chain(node)
                    if len(chain) >= ATTRIBUTE_CHASE_DEPTH:
                        what = (
                            f"attribute chain {'.'.join(chain)} re-chased "
                            f"per iteration"
                        )
                if what is None:
                    continue
                self._add(
                    func.module, getattr(node, "lineno", func.lineno),
                    getattr(node, "col_offset", 0), "BND003",
                    (
                        f"{what} in hot path {func.display} ({why}); "
                        f"hoist it out of the per-reference path or "
                        f"allocate once up front"
                    ),
                )

    def check_annotations(self) -> None:
        """BND004: invalid, unjustified, orphaned or stale bounds."""
        for mod in self.project.modules.values():
            if mod.in_checks_package():
                continue
            attached = self._attached[mod.modname]
            for lineno, bound in sorted(
                self._module_bounds[mod.modname].items()
            ):
                if not bound.valid:
                    self._add(
                        mod, lineno, bound.col, "BND004",
                        f"invalid bound annotation: {bound.problem}",
                    )
                elif lineno not in attached:
                    self._add(
                        mod, lineno, bound.col, "BND004",
                        (
                            "bound annotation is not attached to a "
                            "function definition; put it on the 'def' "
                            "line or the line directly above it"
                        ),
                    )
        for qualname, bound in sorted(self.annotations.items()):
            if not bound.valid:
                continue  # already reported above
            func = self.project.functions[qualname]
            if func.module.in_checks_package():
                continue
            hot = self.hot.get(qualname)
            if hot is None:
                continue  # documentation on cold code is free
            _func, budget, _why = hot
            inferred = self.table.get(qualname, _ZERO)
            if inferred.cost <= budget:
                self._add(
                    func.module, bound.lineno, bound.col, "BND004",
                    (
                        f"stale bound annotation on {func.display}: "
                        f"declared {bound.label} but the inferred cost "
                        f"is {inferred.cost.label}, within the default "
                        f"{budget.label} budget — remove the annotation"
                    ),
                )

    def report(self) -> List[Finding]:
        """Every BND finding, unfiltered, in the order the rules ran."""
        self.check_budgets()
        self.check_chain_walks()
        self.check_hot_allocations()
        self.check_annotations()
        return self.findings


__all__ = [
    "BOUNDED_COLLECTIONS",
    "BOUNDED_NAMES",
    "BoundsChecker",
    "CostW",
    "ENGINE_ENTRY_PREFIXES",
    "ENTRY_CONST_METHODS",
]
