"""The symbolic cost lattice and the ``# repro: bound`` grammar.

Costs form a small totally ordered lattice::

    O(1) < O(log n) < O(n) < O(n log n) < O(n^2) < O(n^k)

``n`` is the size of whatever dominates the function's input — the
batch, the trace, the resident set; the lattice deliberately does not
distinguish them, because the budget question ("is this constant per
reference or not?") only needs the order. ``O(n^k)`` is the top
element: anything the interpreter cannot bound, including deep loop
nests and unbounded recursion, lands there.

Two composition operators mirror program structure:

- :func:`combine` — sequential composition (``max``);
- :func:`scale` — loop composition (a body of cost ``c`` run once per
  element of a structure of size class ``m``).

Declared bounds are written as a comment on the ``def`` line or the
line directly above it::

    # repro: bound O(n) -- DemotionSearching walks the gap to the
    #                      level successor (paper Section 3.2)
    def _insert_sorted(self, slot, level): ...

The grammar is ``# repro: bound EXPR [amortized] -- justification``
where ``EXPR`` is one of the lattice labels above. ``amortized``
accepts bounds that hold per operation only across a sequence
(geometric slab growth, checkpoint-reverify batch kernels, stack
pruning paid for by earlier pushes). A declared bound is an *accepted,
justified obligation*: the function is exempt from BND001, callers
account it as unit cost (the debt is recorded once, where it is
justified, instead of re-reported along every call chain), and BND004
keeps the annotation honest (parsable, justified, still needed).
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.checks.engine import BOUND_RE


class Cost(enum.IntEnum):
    """Totally ordered symbolic cost; larger is worse."""

    CONST = 0
    LOG = 1
    LINEAR = 2
    NLOGN = 3
    QUADRATIC = 4
    TOP = 5

    @property
    def label(self) -> str:
        return _LABELS[self]


_LABELS: Dict[Cost, str] = {
    Cost.CONST: "O(1)",
    Cost.LOG: "O(log n)",
    Cost.LINEAR: "O(n)",
    Cost.NLOGN: "O(n log n)",
    Cost.QUADRATIC: "O(n^2)",
    Cost.TOP: "O(n^k)",
}

#: Accepted spellings of each lattice label (lowercased, spaces
#: squeezed) — ``O(nlogn)`` and ``O(n log n)`` both parse.
_SPELLINGS: Dict[str, Cost] = {
    "o(1)": Cost.CONST,
    "o(log n)": Cost.LOG,
    "o(logn)": Cost.LOG,
    "o(n)": Cost.LINEAR,
    "o(n log n)": Cost.NLOGN,
    "o(nlogn)": Cost.NLOGN,
    "o(n^2)": Cost.QUADRATIC,
    "o(n2)": Cost.QUADRATIC,
    "o(n^k)": Cost.TOP,
    "o(nk)": Cost.TOP,
}


def combine(a: Cost, b: Cost) -> Cost:
    """Sequential composition: the max dominates."""
    return a if a >= b else b


def scale(multiplier: Cost, body: Cost) -> Cost:
    """Loop composition: ``body`` executed once per element of a
    structure whose size class is ``multiplier``."""
    if multiplier == Cost.CONST:
        return body
    if body == Cost.CONST:
        return multiplier
    if multiplier == Cost.TOP or body == Cost.TOP:
        return Cost.TOP
    if {multiplier, body} == {Cost.LOG}:
        # log^2 n has no lattice point of its own; round up to the next
        # element so the result stays an over-approximation.
        return Cost.LINEAR
    if Cost.LOG in (multiplier, body):
        other = body if multiplier == Cost.LOG else multiplier
        return Cost(min(other + 1, Cost.TOP))  # n -> n log n -> ...
    if multiplier == Cost.LINEAR and body == Cost.LINEAR:
        return Cost.QUADRATIC
    return Cost.TOP


#: Matches the bound expression at the start of the comment rest.
_EXPR_RE = re.compile(
    r"^\s*(?P<expr>[Oo]\(\s*[^)]*\))\s*(?P<amortized>amortized\b)?",
)


@dataclass(frozen=True)
class Bound:
    """One parsed ``# repro: bound`` annotation.

    ``problem`` is ``None`` for a well-formed annotation; otherwise a
    short description of what is wrong (surfaced as BND004).
    """

    cost: Cost
    amortized: bool
    justification: str
    lineno: int
    col: int
    problem: Optional[str] = None

    @property
    def valid(self) -> bool:
        return self.problem is None

    @property
    def label(self) -> str:
        return self.cost.label + (" amortized" if self.amortized else "")


def parse_bound(comment: str, lineno: int, col: int) -> Optional[Bound]:
    """Parse one comment token into a :class:`Bound`, or ``None`` when
    the comment is not a bound annotation at all."""
    match = BOUND_RE.search(comment)
    if match is None:
        return None
    if match.start() > 0 and comment[match.start() - 1] == "`":
        return None  # documentation quoting the marker, not a marker
    rest = match.group("rest")
    expr_match = _EXPR_RE.match(rest)
    if expr_match is None:
        return Bound(
            cost=Cost.TOP, amortized=False, justification="",
            lineno=lineno, col=col,
            problem=(
                "missing or malformed bound expression; write "
                "'# repro: bound O(1)|O(log n)|O(n)|O(n log n)|O(n^2)"
                "|O(n^k) [amortized] -- justification'"
            ),
        )
    raw_expr = expr_match.group("expr").lower()
    normalized = re.sub(r"\s+", " ", raw_expr.replace("*", "")).strip()
    cost = _SPELLINGS.get(normalized)
    if cost is None:
        compact = normalized.replace(" ", "")
        cost = _SPELLINGS.get(compact)
    if cost is None:
        return Bound(
            cost=Cost.TOP, amortized=False, justification="",
            lineno=lineno, col=col,
            problem=(
                f"unknown bound expression {expr_match.group('expr')!r}; "
                f"use one of O(1), O(log n), O(n), O(n log n), O(n^2), "
                f"O(n^k)"
            ),
        )
    justification = rest[expr_match.end():].strip()
    justification = justification.lstrip("-—: ").strip()
    if not justification:
        return Bound(
            cost=cost, amortized=bool(expr_match.group("amortized")),
            justification="", lineno=lineno, col=col,
            problem=(
                "bound annotation has no justification; append one, "
                "e.g. '# repro: bound O(n) -- why the walk is "
                "intentional and short in practice'"
            ),
        )
    return Bound(
        cost=cost,
        amortized=bool(expr_match.group("amortized")),
        justification=justification,
        lineno=lineno,
        col=col,
    )


def collect_bounds(comments: Iterable[Tuple[int, int, str]]) -> List[Bound]:
    """Every ``# repro: bound`` annotation among a file's comment tokens
    (``(lineno, col, text)``, in line order), parsed (possibly with
    ``problem`` set)."""
    out: List[Bound] = []
    for lineno, col, comment in comments:
        bound = parse_bound(comment, lineno, col)
        if bound is not None:
            out.append(bound)
    return out


def bounds_by_line(
    comments: Iterable[Tuple[int, int, str]]
) -> Dict[int, Bound]:
    """Line → annotation (last one wins on a pathological double)."""
    return {bound.lineno: bound for bound in collect_bounds(comments)}


__all__ = [
    "BOUND_RE",
    "Bound",
    "Cost",
    "bounds_by_line",
    "collect_bounds",
    "combine",
    "parse_bound",
    "scale",
]
