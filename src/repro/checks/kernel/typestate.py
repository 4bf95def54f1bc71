"""KER001–KER003 — slot-typestate abstract interpretation.

Each function that touches a slab is interpreted over an abstract
environment mapping local variables to :class:`Facts`: a set of possible
lifecycle states (``allocated → linked → unlinked → freed``), the slot
space the value belongs to, an undischarged allocation obligation, and
the trace of events that produced the value. Control flow is handled
structurally — branches are interpreted separately and joined, loop
bodies run twice (enough to reach the loop fixpoint for this lattice,
whose chains have height ≤ 4), ``try`` handlers join the pre-body and
post-body states — so every report corresponds to a real intraprocedural
path, which the finding carries as ``steps``.

Rules:

- **KER001** use-after-free: a slot that *may* be freed on some path is
  read or spliced through a link array, re-linked, unlinked, or freed
  again (double free).
- **KER002** slot leak: a slot obtained directly from ``alloc()`` whose
  ownership is never discharged — freed, wired into a link array,
  stored into a container/attribute, passed to a call, or returned —
  on some exit path of the allocating function.
- **KER003** cross-slab confusion: a slot index from one slot space is
  used to index another slab's link arrays, linked into another slab's
  list, or freed against another slab.

The pass is deliberately conservative in what it *tracks*, not in what
it assumes: a value whose space or state is unknown generates no
findings. That keeps the live tree's idioms (attribute-held slots,
dict-held slots, cross-object list references) silent without noqa.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.checks.findings import Finding
from repro.checks.flow.project import (
    FunctionInfo,
    Project,
    attribute_chain,
)
from repro.checks.kernel.model import (
    ArrayRole,
    ClassModel,
    LINKING_METHODS,
    ListRole,
    POPPING_METHODS,
    Role,
    SlabRole,
    UNLINKING_METHODS,
    build_summaries,
    method_summary,
    resolve_role,
)

ALLOCATED = "allocated"
LINKED = "linked"
UNLINKED = "unlinked"
FREED = "freed"

#: Longest event trace attached to a finding.
_MAX_TRACE = 12


@dataclass(frozen=True)
class Facts:
    """Abstract value of one local variable holding a slot index."""

    states: frozenset
    space: Optional[str] = None
    obligation: Optional[int] = None
    trace: Tuple[Tuple[int, str], ...] = field(default=())

    def with_event(self, lineno: int, note: str) -> "Facts":
        trace = self.trace
        if len(trace) < _MAX_TRACE:
            trace = trace + ((lineno, note),)
        return replace(self, trace=trace)


def _join_facts(a: Optional[Facts], b: Optional[Facts]) -> Optional[Facts]:
    if a is None:
        return b
    if b is None:
        return a
    return Facts(
        states=a.states | b.states,
        space=a.space if a.space == b.space else None,
        obligation=a.obligation if a.obligation is not None else b.obligation,
        trace=a.trace if len(a.trace) >= len(b.trace) else b.trace,
    )


class _State:
    """Abstract environment at one program point."""

    __slots__ = ("env", "roles")

    def __init__(
        self,
        env: Optional[Dict[str, Facts]] = None,
        roles: Optional[Dict[str, Role]] = None,
    ) -> None:
        self.env: Dict[str, Facts] = env if env is not None else {}
        self.roles: Dict[str, Role] = roles if roles is not None else {}

    def copy(self) -> "_State":
        return _State(dict(self.env), dict(self.roles))


def _join_states(states: Sequence[Optional[_State]]) -> Optional[_State]:
    live = [s for s in states if s is not None]
    if not live:
        return None
    out = live[0].copy()
    for other in live[1:]:
        for var in set(out.env) | set(other.env):
            joined = _join_facts(out.env.get(var), other.env.get(var))
            if joined is not None:
                out.env[var] = joined
        for var in list(out.roles):
            if other.roles.get(var) != out.roles[var]:
                del out.roles[var]
        # roles only present on the other side are dropped (must hold on
        # every joined path to stay sound for KER003)
    return out


def _is_unlinked_const(expr: ast.expr) -> bool:
    """Is the expression the UNLINKED marker (``-1``)?"""
    if isinstance(expr, ast.Constant):
        return expr.value == -1
    if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.USub):
        return isinstance(expr.operand, ast.Constant) and \
            expr.operand.value == 1
    chain = attribute_chain(expr)
    return bool(chain) and chain[-1] == "UNLINKED"


class KernelChecker:
    """Run the typestate pass over every function in a project."""

    def __init__(self, project: Project):
        self.project = project
        self.models = project.class_models
        self.summaries = build_summaries(project, self.models)
        self.findings: List[Finding] = []

    def run(self) -> List[Finding]:
        for func in self.project.functions.values():
            if func.module.in_checks_package():
                continue
            if isinstance(func.node, ast.Lambda):
                continue
            _FunctionInterp(self, func).run()
        return self.findings

    def report(
        self,
        func: FunctionInfo,
        lineno: int,
        col: int,
        rule: str,
        message: str,
        steps: Tuple[Tuple[int, str], ...] = (),
    ) -> None:
        self.findings.append(
            Finding(
                path=func.module.path,
                line=lineno,
                col=col,
                rule=rule,
                message=message,
                steps=steps,
            )
        )


class _FunctionInterp:
    """Structured abstract interpretation of one function body."""

    def __init__(self, checker: KernelChecker, func: FunctionInfo) -> None:
        self.checker = checker
        self.func = func
        self.model: Optional[ClassModel] = None
        if func.cls is not None:
            self.model = checker.models.get(func.cls.qualname)
        self.loop_exits: List[List[_State]] = []

    # ------------------------------------------------------------------
    # driver

    def run(self) -> None:
        state: Optional[_State] = _State()
        state = self._exec_block(self.func.body(), state)
        if state is not None:
            self._exit_check(state)

    # ------------------------------------------------------------------
    # reporting helpers

    def _report(
        self,
        lineno: int,
        rule: str,
        message: str,
        facts: Optional[Facts] = None,
        note: Optional[str] = None,
    ) -> None:
        steps: Tuple[Tuple[int, str], ...] = ()
        if facts is not None:
            steps = facts.trace
            if note is not None and len(steps) < _MAX_TRACE:
                steps = steps + ((lineno, note),)
        self.checker.report(self.func, lineno, 0, rule, message, steps)

    def _check_live(
        self, var: str, facts: Facts, lineno: int, action: str
    ) -> None:
        """KER001 when a possibly-freed slot is used as ``action``."""
        if FREED in facts.states:
            self._report(
                lineno,
                "KER001",
                f"use-after-free: slot `{var}` may already be freed when "
                f"{action} in {self.func.display}",
                facts,
                note=f"{action} of possibly-freed `{var}`",
            )

    def _check_space(
        self, var: str, facts: Facts, space: Optional[str],
        lineno: int, action: str,
    ) -> None:
        """KER003 when a slot crosses into a different slot space."""
        if facts.space is None or space is None or not space:
            return
        if facts.space != space:
            self._report(
                lineno,
                "KER003",
                f"cross-slab confusion: slot `{var}` from space "
                f"`{facts.space}` is used {action} of space `{space}` "
                f"in {self.func.display}",
                facts,
                note=f"`{var}` crosses into space `{space}`",
            )

    def _exit_check(self, state: _State, lineno: Optional[int] = None) -> None:
        """KER002 for every undischarged allocation reaching this exit."""
        # every discharging transition (free, link, splice, store, call,
        # return) clears the obligation, so a surviving obligation means
        # at least one joined path kept ownership to this exit
        for var, facts in state.env.items():
            if facts.obligation is None:
                continue
            self._report(
                facts.obligation,
                "KER002",
                f"slot leak: `{var}` is allocated"
                + (f" from space `{facts.space}`" if facts.space else "")
                + f" but neither freed, linked nor stored on some exit "
                f"path of {self.func.display}",
                facts,
                note="function exits without discharging the slot",
            )

    def _discharge(self, state: _State, var: str) -> None:
        facts = state.env.get(var)
        if facts is not None and facts.obligation is not None:
            state.env[var] = replace(facts, obligation=None)

    def _discharge_expr(self, state: _State, expr: ast.expr) -> None:
        """Ownership may transfer through any name inside ``expr``."""
        for node in ast.walk(expr):
            if isinstance(node, ast.Name):
                self._discharge(state, node.id)

    # ------------------------------------------------------------------
    # expression evaluation (effects + abstract result)

    def _role_of(self, expr: ast.expr, state: _State) -> Optional[Role]:
        return resolve_role(expr, state.roles, self.model)

    def _eval(self, expr: ast.expr, state: _State) -> Optional[Facts]:
        if isinstance(expr, ast.Name):
            return state.env.get(expr.id)
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, state)
        if isinstance(expr, ast.Subscript):
            return self._eval_subscript_read(expr, state)
        if isinstance(expr, (ast.Yield, ast.YieldFrom)):
            if expr.value is not None:
                self._eval(expr.value, state)
                self._discharge_expr(state, expr.value)
            return None
        if isinstance(expr, ast.Attribute):
            self._eval(expr.value, state)
            return None
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            for node in ast.walk(expr):
                if isinstance(node, ast.Name):
                    self._discharge(state, node.id)
            return None
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._eval(child, state)
        return None

    def _eval_subscript_read(
        self, expr: ast.Subscript, state: _State
    ) -> Optional[Facts]:
        role = self._role_of(expr.value, state)
        index = expr.slice
        if isinstance(role, ArrayRole):
            if isinstance(index, ast.Name):
                facts = state.env.get(index.id)
                if facts is not None:
                    self._check_live(
                        index.id, facts, expr.lineno,
                        f"its `{role.key.rsplit('.', 1)[-1]}` link is read",
                    )
                    self._check_space(
                        index.id, facts, role.space, expr.lineno,
                        f"to index link array `{role.key}`",
                    )
            else:
                self._eval(index, state)
            # a link-array read yields another slot of the same space
            return Facts(
                states=frozenset({LINKED}),
                space=role.space,
                trace=((expr.lineno, f"read from link array `{role.key}`"),),
            )
        self._eval(expr.value, state)
        self._eval(index, state)
        return None

    def _eval_call(self, call: ast.Call, state: _State) -> Optional[Facts]:
        for arg in call.args:
            self._eval(arg, state)
        for kw in call.keywords:
            if kw.value is not None:
                self._eval(kw.value, state)

        result: Optional[Facts] = None
        handled = False
        if isinstance(call.func, ast.Attribute):
            recv = self._role_of(call.func.value, state)
            name = call.func.attr
            if isinstance(recv, SlabRole):
                if name == "alloc":
                    return Facts(
                        states=frozenset({ALLOCATED}),
                        space=recv.space,
                        obligation=call.lineno,
                        trace=((call.lineno,
                                f"allocated from slab space `{recv.space}`"),),
                    )
                if name == "free" and call.args:
                    self._apply_free(call.args[0], recv.space, call.lineno,
                                     state)
                    handled = True
            elif isinstance(recv, ListRole):
                handled = self._apply_list_op(recv, name, call, state)
                if name in POPPING_METHODS:
                    return Facts(
                        states=frozenset({UNLINKED}),
                        space=recv.space,
                        trace=((call.lineno,
                                f"popped from list `{recv.key}`"),),
                    )
            else:
                self._eval(call.func.value, state)

        if not handled:
            summary = method_summary(
                self.checker.project, self.checker.models,
                self.checker.summaries, self.func, call,
            )
            if summary is not None:
                for idx, arg in enumerate(call.args):
                    space = summary.frees.get(idx)
                    if space is not None:
                        self._apply_free(arg, space, call.lineno, state)
                if summary.returns_alloc is not None:
                    # summary allocs carry no obligation: the callee's
                    # own exit-paths are checked when it is interpreted
                    return Facts(
                        states=frozenset({ALLOCATED}),
                        space=summary.returns_alloc,
                        trace=((call.lineno,
                                "allocated via "
                                f"helper (space `{summary.returns_alloc}`)"),),
                    )
            # unknown call: ownership may transfer through any argument
            for arg in call.args:
                self._discharge_expr(state, arg)
            for kw in call.keywords:
                if kw.value is not None:
                    self._discharge_expr(state, kw.value)
        return result

    def _apply_free(
        self, arg: ast.expr, space: str, lineno: int, state: _State
    ) -> None:
        if not isinstance(arg, ast.Name):
            return
        facts = state.env.get(arg.id)
        if facts is None:
            return
        if FREED in facts.states:
            self._report(
                lineno,
                "KER001",
                f"double free: slot `{arg.id}` may already be freed when "
                f"it is freed again in {self.func.display}",
                facts,
                note=f"second free of `{arg.id}`",
            )
        self._check_space(arg.id, facts, space, lineno, "to free against slab")
        state.env[arg.id] = replace(
            facts.with_event(lineno, f"`{arg.id}` freed"),
            states=frozenset({FREED}),
            obligation=None,
        )

    def _apply_list_op(
        self, recv: ListRole, name: str, call: ast.Call, state: _State
    ) -> bool:
        if name in LINKING_METHODS:
            if call.args and isinstance(call.args[0], ast.Name):
                var = call.args[0].id
                facts = state.env.get(var)
                if facts is not None:
                    self._check_live(
                        var, facts, call.lineno,
                        f"it is linked into list `{recv.key}`",
                    )
                    self._check_space(
                        var, facts, recv.space, call.lineno,
                        f"to link into list `{recv.key}`",
                    )
                    state.env[var] = replace(
                        facts.with_event(
                            call.lineno, f"`{var}` linked into `{recv.key}`"
                        ),
                        states=frozenset({LINKED}),
                        obligation=None,
                    )
            # anchor arguments are read, not linked
            for anchor in call.args[1:]:
                if isinstance(anchor, ast.Name):
                    anchor_facts = state.env.get(anchor.id)
                    if anchor_facts is not None:
                        self._check_live(
                            anchor.id, anchor_facts, call.lineno,
                            "it is used as a splice anchor",
                        )
                        self._check_space(
                            anchor.id, anchor_facts, recv.space, call.lineno,
                            f"as an anchor in list `{recv.key}`",
                        )
            return True
        if name in UNLINKING_METHODS:
            if call.args and isinstance(call.args[0], ast.Name):
                var = call.args[0].id
                facts = state.env.get(var)
                if facts is not None:
                    self._check_live(
                        var, facts, call.lineno,
                        f"it is unlinked from list `{recv.key}`",
                    )
                    self._check_space(
                        var, facts, recv.space, call.lineno,
                        f"to unlink from list `{recv.key}`",
                    )
                    state.env[var] = replace(
                        facts.with_event(
                            call.lineno,
                            f"`{var}` unlinked from `{recv.key}`",
                        ),
                        states=frozenset({UNLINKED}),
                    )
            return True
        return name in POPPING_METHODS

    # ------------------------------------------------------------------
    # statements

    def _exec_block(
        self, body: Sequence[ast.stmt], state: Optional[_State]
    ) -> Optional[_State]:
        for stmt in body:
            if state is None:
                return None
            state = self._exec_stmt(stmt, state)
        return state

    def _exec_stmt(
        self, stmt: ast.stmt, state: _State
    ) -> Optional[_State]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return state
        if isinstance(stmt, ast.Assign):
            self._exec_assign(stmt, state)
            return state
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign_single(stmt.target, stmt.value, state)
            return state
        if isinstance(stmt, ast.AugAssign):
            self._eval(stmt.value, state)
            if isinstance(stmt.target, ast.Name):
                state.env.pop(stmt.target.id, None)
                state.roles.pop(stmt.target.id, None)
            return state
        if isinstance(stmt, ast.Expr):
            self._eval(stmt.value, state)
            return state
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._eval(stmt.value, state)
                self._discharge_expr(state, stmt.value)
            self._exit_check(state)
            return None
        if isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc, state)
            self._exit_check(state)
            return None
        if isinstance(stmt, ast.If):
            self._eval(stmt.test, state)
            then = self._exec_block(stmt.body, state.copy())
            other = self._exec_block(stmt.orelse, state.copy())
            return _join_states([then, other])
        if isinstance(stmt, (ast.While, ast.For)):
            return self._exec_loop(stmt, state)
        if isinstance(stmt, (ast.Break, ast.Continue)):
            # record the state for the loop-exit join, then terminate
            # this path; sibling paths continue through the If join
            if self.loop_exits:
                self.loop_exits[-1].append(state.copy())
            return None
        if isinstance(stmt, ast.Try):
            pre = state.copy()
            after_body = self._exec_block(stmt.body, state)
            handler_in = _join_states([pre, after_body])
            outs: List[Optional[_State]] = []
            for handler in stmt.handlers:
                h_in = handler_in.copy() if handler_in is not None else None
                outs.append(self._exec_block(handler.body, h_in))
            after_else = self._exec_block(
                stmt.orelse,
                after_body.copy() if after_body is not None else None,
            )
            outs.append(after_else)
            merged = _join_states(outs)
            return self._exec_block(stmt.finalbody, merged)
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                self._eval(item.context_expr, state)
                if item.optional_vars is not None:
                    self._clear_target(item.optional_vars, state)
            return self._exec_block(stmt.body, state)
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    state.env.pop(target.id, None)
                    state.roles.pop(target.id, None)
                else:
                    self._eval(target, state)
            return state
        if isinstance(stmt, (ast.Assert,)):
            self._eval(stmt.test, state)
            return state
        if isinstance(stmt, (ast.Global, ast.Nonlocal, ast.Pass,
                             ast.Import, ast.ImportFrom)):
            return state
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._eval(child, state)
        return state

    def _exec_loop(
        self, stmt: ast.stmt, state: _State
    ) -> Optional[_State]:
        if isinstance(stmt, ast.While):
            self._eval(stmt.test, state)
        elif isinstance(stmt, ast.For):
            self._eval(stmt.iter, state)
            self._clear_target(stmt.target, state)
        self.loop_exits.append([])
        skip = state.copy()
        first = self._run_loop_body(stmt.body, state.copy())
        second_in = _join_states([state, first])
        second = self._run_loop_body(
            stmt.body, second_in.copy() if second_in is not None else None
        )
        exits = self.loop_exits.pop()
        merged = _join_states([skip, first, second] + exits)
        if stmt.orelse and merged is not None:
            merged = self._exec_block(stmt.orelse, merged)
        return merged

    def _run_loop_body(
        self, body: Sequence[ast.stmt], state: Optional[_State]
    ) -> Optional[_State]:
        if state is None:
            return None
        return self._exec_block(body, state)

    def _clear_target(self, target: ast.expr, state: _State) -> None:
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                state.env.pop(node.id, None)
                state.roles.pop(node.id, None)

    # ------------------------------------------------------------------
    # assignment

    def _exec_assign(self, stmt: ast.Assign, state: _State) -> None:
        if len(stmt.targets) == 1 and isinstance(stmt.targets[0], ast.Tuple) \
                and isinstance(stmt.value, ast.Tuple) \
                and len(stmt.targets[0].elts) == len(stmt.value.elts):
            for target, value in zip(stmt.targets[0].elts, stmt.value.elts):
                self._assign_single(target, value, state)
            return
        for target in stmt.targets:
            self._assign_single(target, stmt.value, state)

    def _assign_single(
        self, target: ast.expr, value: ast.expr, state: _State
    ) -> None:
        if isinstance(target, ast.Name):
            role = self._role_of(value, state)
            if role is not None and not isinstance(value, ast.Call):
                # alias like `prv = stack.prev` — pure resolution
                state.roles[target.id] = role
                state.env.pop(target.id, None)
                return
            facts = self._eval(value, state)
            if role is not None and facts is None:
                state.roles[target.id] = role
                state.env.pop(target.id, None)
                return
            state.roles.pop(target.id, None)
            if facts is not None and isinstance(value, ast.Name):
                # alias copy never carries the original's obligation —
                # one owner is enough for the leak check
                facts = replace(facts, obligation=None)
            if facts is not None:
                state.env[target.id] = facts.with_event(
                    target.lineno, f"assigned to `{target.id}`"
                ) if not facts.trace else facts
            else:
                state.env.pop(target.id, None)
            return
        if isinstance(target, ast.Subscript):
            self._assign_subscript(target, value, state)
            return
        if isinstance(target, ast.Attribute):
            self._eval(value, state)
            self._discharge_expr(state, value)
            self._eval(target.value, state)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            self._eval(value, state)
            self._clear_target(target, state)
            return
        self._eval(value, state)

    def _assign_subscript(
        self, target: ast.Subscript, value: ast.expr, state: _State
    ) -> None:
        value_facts = self._eval(value, state)
        role = self._role_of(target.value, state)
        index = target.slice
        if isinstance(role, ArrayRole):
            arr_name = role.key.rsplit(".", 1)[-1]
            if isinstance(index, ast.Name):
                facts = state.env.get(index.id)
                if facts is not None:
                    self._check_live(
                        index.id, facts, target.lineno,
                        f"its `{arr_name}` link is written",
                    )
                    self._check_space(
                        index.id, facts, role.space, target.lineno,
                        f"to index link array `{role.key}`",
                    )
                    if _is_unlinked_const(value):
                        state.env[index.id] = replace(
                            facts.with_event(
                                target.lineno,
                                f"`{index.id}.{arr_name}` set UNLINKED",
                            ),
                            states=frozenset({UNLINKED}),
                        )
                    else:
                        state.env[index.id] = replace(
                            facts.with_event(
                                target.lineno,
                                f"`{index.id}` spliced via `{role.key}`",
                            ),
                            states=frozenset({LINKED}),
                            obligation=None,
                        )
            else:
                self._eval(index, state)
            if isinstance(value, ast.Name):
                v_facts = state.env.get(value.id)
                if v_facts is not None:
                    self._check_live(
                        value.id, v_facts, target.lineno,
                        f"it is written into link array `{role.key}`",
                    )
                    self._check_space(
                        value.id, v_facts, role.space, target.lineno,
                        f"as a value in link array `{role.key}`",
                    )
                    state.env[value.id] = replace(
                        v_facts.with_event(
                            target.lineno,
                            f"`{value.id}` wired into `{role.key}`",
                        ),
                        states=frozenset({LINKED}),
                        obligation=None,
                    )
            return
        # store into an untyped container discharges ownership
        self._eval(target.value, state)
        self._eval(index, state)
        self._discharge_expr(state, value)


def run_typestate(project: Project) -> List[Finding]:
    """KER001–KER003 findings over every function in ``project``."""
    return KernelChecker(project).run()
