"""The simulator-specific AST lint rules.

Every rule knows which part of the tree it guards and why; the docstring
of each rule class is the authoritative rationale (``repro check
--list-rules`` prints them). Rules are deliberately *syntactic* — no type
inference — so they are fast, dependency-free and predictable; anything
they cannot prove is left alone, and false positives are silenced at the
offending line with ``# repro: noqa RULE`` plus a justifying comment.

The common thread: a :class:`~repro.runner.spec.RunSpec` hash is only an
honest cache key if replaying the spec is bit-identical, so anything
nondeterministic (wall clocks, unseeded PRNGs, set iteration order,
module-level mutable state) or silently lossy (bare ``except``,
``assert`` stripped under ``-O``, float ``==``) is a correctness bug
here, not a style preference.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List, Sequence, Set, Tuple, Type

from repro.checks.findings import Finding

#: Package sub-directories whose modules feed simulation results directly
#: (iteration order and shared state can escape into cached metrics).
RESULT_BEARING_DIRS = ("policies", "hierarchy", "core")

#: Module path (parts) allowed to import the stdlib PRNG machinery.
RNG_MODULE_PARTS = ("util", "rng.py")


class FileContext:
    """Everything a rule needs to know about one source file."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        # Path components after the last ``repro``/``src`` segment, or the
        # raw components when the file lives outside the package (unit
        # tests lint synthetic files from a temp directory).
        parts: Tuple[str, ...] = tuple(
            part for part in path.replace("\\", "/").split("/") if part
        )
        for anchor in ("repro", "src"):
            if anchor in parts:
                parts = parts[len(parts) - parts[::-1].index(anchor):]
        self.parts = parts

    def in_dirs(self, dirs: Sequence[str]) -> bool:
        """Whether the file sits under one of the given sub-directories."""
        return any(part in dirs for part in self.parts[:-1])

    def is_rng_module(self) -> bool:
        return self.parts[-2:] == RNG_MODULE_PARTS


class Rule:
    """Base class: subclasses set ``code``/``summary`` and yield findings."""

    code = "XXX000"
    summary = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.code,
            message=message,
        )


def _attribute_chain(node: ast.AST) -> Tuple[str, ...]:
    """``a.b.c`` as ``("a", "b", "c")``; empty when not a plain chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return ()


class NoWallClockOrGlobalRandom(Rule):
    """DET001 — cache-key determinism.

    ``random``, ``time``, ``datetime`` and ``os.urandom`` in simulation
    code make a rerun of the same RunSpec diverge from its cached result,
    poisoning the content-addressed cache undetectably. All randomness
    must flow through :mod:`repro.util.rng` (seeded, derivable streams);
    wall-clock use for *measurement metadata* is possible but must be
    explicit (``# repro: noqa DET001`` with a justification).
    """

    code = "DET001"
    summary = (
        "no random/time/datetime/os.urandom outside repro.util.rng "
        "(cache-key determinism)"
    )

    BANNED_MODULES = {"random", "time", "datetime"}

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.is_rng_module():
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in self.BANNED_MODULES:
                        yield self.finding(
                            ctx, node,
                            f"import of nondeterministic module "
                            f"{alias.name!r}; route randomness through "
                            f"repro.util.rng and keep wall clocks out of "
                            f"simulation paths",
                        )
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if node.level == 0 and root in self.BANNED_MODULES:
                    yield self.finding(
                        ctx, node,
                        f"import from nondeterministic module {root!r}",
                    )
            elif isinstance(node, ast.Attribute):
                if _attribute_chain(node) == ("os", "urandom"):
                    yield self.finding(
                        ctx, node,
                        "os.urandom is nondeterministic; derive seeds "
                        "with repro.util.rng.derive_seed",
                    )


def _is_set_expression(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


#: Builtins whose output order mirrors their input's iteration order.
_ORDER_LEAKING_CALLS = ("list", "tuple", "iter", "enumerate", "reversed")


class NoSetIteration(Rule):
    """DET002 — set iteration order must not reach results.

    Python ``set`` iteration order depends on insertion history and hash
    seeding; in ``policies/``, ``hierarchy/`` and ``core/`` that order
    can decide which block is evicted first and therefore change hit
    curves between runs. Iterate ``dict`` (insertion-ordered) or wrap in
    ``sorted(...)``; membership tests and ``len`` on sets stay fine.
    """

    code = "DET002"
    summary = (
        "no iteration over bare sets in policies/hierarchy/core "
        "(ordering escapes into results)"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.parts and not ctx.in_dirs(RESULT_BEARING_DIRS):
            return
        tracked = self._set_bound_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if self._leaks_order(node.iter, tracked):
                    yield self.finding(
                        ctx, node.iter,
                        "iteration over a set; use a dict or sorted(...)",
                    )
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for gen in node.generators:
                    if self._leaks_order(gen.iter, tracked):
                        yield self.finding(
                            ctx, gen.iter,
                            "comprehension over a set; use a dict or "
                            "sorted(...)",
                        )
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in _ORDER_LEAKING_CALLS and node.args:
                    if self._leaks_order(node.args[0], tracked):
                        yield self.finding(
                            ctx, node,
                            f"{node.func.id}(...) over a set leaks its "
                            f"ordering; use sorted(...) or a dict",
                        )

    @staticmethod
    def _set_bound_names(tree: ast.Module) -> Set[str]:
        """Names (plain or ``self.attr``) ever assigned a set expression."""
        names: Set[str] = set()
        for node in ast.walk(tree):
            value = None
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                value, targets = node.value, node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                value, targets = node.value, [node.target]
            if value is None or not _is_set_expression(value):
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
                elif isinstance(target, ast.Attribute):
                    names.add(target.attr)
        return names

    @staticmethod
    def _leaks_order(node: ast.AST, tracked: Set[str]) -> bool:
        if _is_set_expression(node):
            return True
        if isinstance(node, ast.Name):
            return node.id in tracked
        if isinstance(node, ast.Attribute):
            return node.attr in tracked
        return False


_MUTABLE_CONSTRUCTORS = (
    "list", "dict", "set", "defaultdict", "OrderedDict", "deque", "Counter",
)


def _is_mutable_expression(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        chain = _attribute_chain(node.func)
        return bool(chain) and chain[-1] in _MUTABLE_CONSTRUCTORS
    return False


class NoSharedMutableState(Rule):
    """SIM001 — no module- or class-level mutable state in scheme code.

    A module-level dict/list in a policy survives across simulations in
    the same process: two runs in one worker see different state than two
    runs in two workers, so parallel execution stops being bit-identical
    to serial execution (the S3-FIFO global-queue bug class). All
    per-simulation state belongs on the instance. Registries mutated only
    at import/registration time are the sanctioned exception — suppress
    with a justifying comment.
    """

    code = "SIM001"
    summary = (
        "no module/class-level mutable state in policies/hierarchy/core "
        "(breaks run isolation)"
    )

    ALLOWED_NAMES = ("__all__", "__slots__")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.parts and not ctx.in_dirs(RESULT_BEARING_DIRS):
            return
        yield from self._scan_body(ctx, ctx.tree.body, scope="module")
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._scan_body(
                    ctx, node.body, scope=f"class {node.name}"
                )

    def _scan_body(
        self, ctx: FileContext, body: Sequence[ast.stmt], scope: str
    ) -> Iterator[Finding]:
        for stmt in body:
            value = None
            targets: List[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                value, targets = stmt.value, stmt.targets
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                value, targets = stmt.value, [stmt.target]
            if value is None or not _is_mutable_expression(value):
                continue
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if names and all(name in self.ALLOWED_NAMES for name in names):
                continue
            label = ", ".join(names) or "<target>"
            yield self.finding(
                ctx, stmt,
                f"mutable {scope}-level state {label!r}; move it onto the "
                f"instance (or suppress if only mutated at registration "
                f"time)",
            )


class NoBlindExcept(Rule):
    """ERR001 — no bare or blanket ``except`` without re-raise.

    A swallowed exception in a worker turns a crashed simulation into a
    silently wrong (and then cached) result. Catch the narrowest
    :class:`~repro.errors.ReproError` subclass, or re-raise.
    """

    code = "ERR001"
    summary = "no bare/blind except (swallowed errors become cached results)"

    BLANKET = ("Exception", "BaseException")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    ctx, node, "bare except; name the exception type"
                )
                continue
            caught = [node.type] if not isinstance(node.type, ast.Tuple) \
                else list(node.type.elts)
            blanket = any(
                isinstance(c, ast.Name) and c.id in self.BLANKET
                for c in caught
            )
            if blanket and not self._reraises(node):
                yield self.finding(
                    ctx, node,
                    "except Exception without re-raise; catch a specific "
                    "ReproError subclass or re-raise",
                )

    @staticmethod
    def _reraises(handler: ast.ExceptHandler) -> bool:
        return any(
            isinstance(child, ast.Raise)
            for stmt in handler.body
            for child in ast.walk(stmt)
        )


class NoRuntimeAssert(Rule):
    """ASSERT001 — ``assert`` is not runtime validation.

    ``python -O`` strips asserts, so an invariant guarded by ``assert``
    simply stops being checked in optimised deployments — exactly where a
    protocol bug is most expensive. Library code raises
    :class:`~repro.errors.ProtocolError` (internal inconsistency) or
    :class:`~repro.errors.ConfigurationError` (bad input) instead.
    """

    code = "ASSERT001"
    summary = "no assert for runtime validation (stripped under python -O)"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assert):
                yield self.finding(
                    ctx, node,
                    "assert in library code; raise ProtocolError / "
                    "ConfigurationError instead",
                )


def _is_float_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub,
                                                              ast.UAdd)):
        return _is_float_literal(node.operand)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        # float("inf") and friends
        return node.func.id == "float"
    return False


class NoFloatEquality(Rule):
    """FLT001 — no ``==``/``!=`` against float literals.

    Metric values (hit rates, T_ave, ratios) accumulate rounding error;
    exact comparison against a float literal is either dead (never true)
    or flaky across platforms. Compare with ``math.isclose`` or against
    integers/sentinels. Intentional exact sentinel comparisons (e.g.
    ``float("inf")`` markers) are suppressed with a comment.
    """

    code = "FLT001"
    summary = "no float-literal ==/!= on metric values (use math.isclose)"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left] + list(node.comparators)
            if any(_is_float_literal(operand) for operand in operands):
                yield self.finding(
                    ctx, node,
                    "float equality comparison; use math.isclose or an "
                    "integer/sentinel representation",
                )


#: ``numpy.random`` attributes that are *not* the legacy global-state API.
_NP_RANDOM_OK = ("default_rng", "Generator", "SeedSequence", "BitGenerator",
                 "PCG64", "Philox", "SFC64", "MT19937")


class NoUnseededRng(Rule):
    """SEED001 — every PRNG must be explicitly seeded, none global.

    ``np.random.default_rng()`` / ``random.Random()`` without a seed
    draw OS entropy; the legacy ``np.random.*`` functions and
    ``random.seed`` mutate interpreter-global generator state shared by
    every component in the process. Both break replaying a RunSpec to a
    bit-identical result. Use :func:`repro.util.rng.make_rng` /
    :func:`repro.util.rng.make_stdlib_rng` with a derived seed.
    """

    code = "SEED001"
    summary = "no unseeded or global-state PRNG use (seed via repro.util.rng)"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _attribute_chain(node.func)
            if not chain:
                continue
            if chain in (("random", "seed"), ("np", "random", "seed"),
                         ("numpy", "random", "seed")):
                yield self.finding(
                    ctx, node,
                    "seeding the process-global PRNG; use a local "
                    "generator from repro.util.rng",
                )
            elif chain[-1] == "default_rng" and not node.args \
                    and not node.keywords:
                yield self.finding(
                    ctx, node,
                    "default_rng() without a seed draws OS entropy; pass "
                    "a derived seed",
                )
            elif chain[-2:] == ("random", "Random") and not node.args \
                    and not node.keywords:
                yield self.finding(
                    ctx, node,
                    "random.Random() without a seed draws OS entropy; "
                    "pass a derived seed",
                )
            elif len(chain) >= 2 and chain[-2] == "random" \
                    and chain[0] in ("np", "numpy") \
                    and chain[-1] not in _NP_RANDOM_OK:
                yield self.finding(
                    ctx, node,
                    f"legacy global-state API np.random.{chain[-1]}; use "
                    f"repro.util.rng.make_rng",
                )


#: All AST rules, in report order. API001 lives in
#: :mod:`repro.checks.registry_checks` (it inspects live registries, not
#: syntax) and is appended by the engine.
AST_RULES: Tuple[Type[Rule], ...] = (
    NoWallClockOrGlobalRandom,
    NoSetIteration,
    NoSharedMutableState,
    NoBlindExcept,
    NoRuntimeAssert,
    NoFloatEquality,
    NoUnseededRng,
)


def run_ast_rules(
    ctx: FileContext, select: Iterable[str] = ()
) -> List[Finding]:
    """Run every (selected) AST rule over one file context."""
    wanted = set(select)
    findings: List[Finding] = []
    for rule_cls in AST_RULES:
        if wanted and rule_cls.code not in wanted:
            continue
        findings.extend(rule_cls().check(ctx))
    return findings
