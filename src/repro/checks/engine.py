"""The ``repro check`` engine: discovery, suppression, reporting.

Runs every AST rule (:mod:`repro.checks.rules`) over the requested
files plus the registry-conformance pass
(:mod:`repro.checks.registry_checks`) — and, with ``deep=True``, the
whole-program dataflow pass (:mod:`repro.checks.flow`), with
``kernel=True``, the slot-typestate pass (:mod:`repro.checks.kernel`),
and with ``bounds=True``, the cost-bound pass
(:mod:`repro.checks.bounds`) — and renders the survivors as a human
report, JSON, or SARIF (one merged log whatever the pass mix).

The passes return raw findings; the engine alone filters them, once for
every pass: ``--select``, ``# repro: noqa RULE`` line suppressions, one
copy of each whole-program finding, and the shared baseline. One run
reads, parses and walks each file once (:class:`SourceFile`) and
tokenizes the comments only of files that hold a noqa or bound
directive; the whole-program passes share one project model built from
those files.

Exit-code contract (the CLI returns these):

- ``0`` — no findings,
- ``1`` — findings reported,
- ``2`` — the check itself could not run (bad path, syntax error,
  corrupt baseline).
"""

from __future__ import annotations

import ast
import importlib
import json
import re
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

from repro.checks.baseline import (
    DEFAULT_BASELINE,
    apply_baseline,
    load_baseline,
)
from repro.checks.findings import Finding
from repro.checks.rules import AST_RULES, FileContext, Rule, run_ast_rules
from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.checks.flow.project import Project

#: ``# repro: noqa`` (all rules) or ``# repro: noqa DET001, SIM001``.
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa\b(?:[:\s]+(?P<rules>[A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*))?"
)

#: ``# repro: bound <rest>`` — the rest is parsed by
#: :func:`repro.checks.bounds.cost.parse_bound`. It lives here, beside
#: the noqa directive, because :attr:`SourceFile.comments` reads both.
BOUND_RE = re.compile(r"#\s*repro:\s*bound\b(?P<rest>.*)")


def _suppressions(source: str) -> Dict[int, Optional[Set[str]]]:
    """Per-line suppressions: ``None`` means every rule on that line."""
    table: Dict[int, Optional[Set[str]]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(line)
        if match is None:
            continue
        rules = match.group("rules")
        if rules is None:
            table[lineno] = None
        else:
            table[lineno] = {code.strip() for code in rules.split(",")}
    return table


def _suppressed(
    finding: Finding, table: Dict[int, Optional[Set[str]]]
) -> bool:
    if finding.line not in table:
        return False
    codes = table[finding.line]
    if codes is None:
        # A bare noqa must not silence the rule that polices bare noqas.
        return finding.rule != "NOQA001"
    return finding.rule in codes


#: Suppression hygiene: every noqa must name its rules and justify them.
NOQA001_SUMMARY = (
    "noqa suppression without named rules or a justification comment"
)


def _comment_tokens(source: str) -> List[Tuple[int, int, str]]:
    """``(lineno, col, text)`` of every comment token; [] on tokenizer
    failure (the AST pass reports the syntax error instead)."""
    import io
    import tokenize

    out: List[Tuple[int, int, str]] = []
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                out.append((tok.start[0], tok.start[1], tok.string))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return []
    return out


def _noqa_findings(
    path: str, comments: Iterable[Tuple[int, int, str]]
) -> List[Finding]:
    """NOQA001 findings for bare or unjustified noqa comments.

    A compliant suppression names its rules *and* carries free text
    after them explaining why, e.g.
    ``# repro: noqa SIM001 -- keys are static literals``. Only real
    comment tokens are examined (noqa examples inside strings and
    docstrings, or quoted in backticks, are documentation).
    """
    findings: List[Finding] = []
    for lineno, col, comment in comments:
        match = _NOQA_RE.search(comment)
        if match is None:
            continue
        if match.start() > 0 and comment[match.start() - 1] == "`":
            continue
        rules = match.group("rules")
        justification = comment[match.end():].strip().lstrip("-—: ").strip()
        if rules is None:
            message = (
                "bare '# repro: noqa' suppresses every rule; name the "
                "rule(s) and add a justification, e.g. "
                "'# repro: noqa SIM001 -- why it is safe'"
            )
        elif not justification:
            message = (
                f"'# repro: noqa {rules}' has no justification comment; "
                f"append one, e.g. '# repro: noqa {rules} -- why it is "
                f"safe'"
            )
        else:
            continue
        findings.append(Finding(
            path=path,
            line=lineno,
            col=col + match.start(),
            rule="NOQA001",
            message=message,
        ))
    return findings


@dataclass
class CheckReport:
    """Outcome of one ``run_checks`` invocation."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0
    #: Findings subtracted by the baseline every pass shares.
    baseline_suppressed: int = 0
    deep: bool = False
    kernel: bool = False
    bounds: bool = False

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0


def iter_python_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.extend(sorted(path.rglob("*.py")))
        elif path.is_file():
            out.append(path)
        else:
            raise ConfigurationError(f"no such file or directory: {raw}")
    return out


class SourceFile:
    """One checked file, read and parsed once per run.

    Every pass reads the file through this object: the shallow rules and
    the project model share its tree and its node list, NOQA001 and the
    bounds annotations share its comment tokens, and the noqa table is
    built once.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = str(Path(path))
        self.source = Path(path).read_text(encoding="utf-8")
        try:
            self.tree = ast.parse(self.source, filename=self.path)
        except SyntaxError as exc:
            raise ConfigurationError(
                f"cannot parse {self.path}: {exc.msg} (line {exc.lineno})"
            ) from exc

    @cached_property
    def nodes(self) -> Tuple[ast.AST, ...]:
        """Every node of the tree in ``ast.walk`` order, walked once and
        shared by the shallow rules and the project model."""
        return tuple(ast.walk(self.tree))

    @cached_property
    def comments(self) -> List[Tuple[int, int, str]]:
        """``(lineno, col, text)`` of every comment token, or ``[]`` when
        no noqa or bound directive appears anywhere in the source.

        Both readers (NOQA001 and the bounds annotations) act only on
        comments that hold one of those directives, so skipping the
        tokenizer elsewhere changes nothing they see.
        """
        if _NOQA_RE.search(self.source) is None \
                and BOUND_RE.search(self.source) is None:
            return []
        return _comment_tokens(self.source)

    @cached_property
    def suppressions(self) -> Dict[int, Optional[Set[str]]]:
        """Per-line ``# repro: noqa`` table (see :func:`_suppressions`)."""
        return _suppressions(self.source)


def check_file(
    path: Union[str, Path, SourceFile], select: Iterable[str] = ()
) -> Tuple[List[Finding], int]:
    """Lint one file; returns (visible findings, suppressed count)."""
    source = path if isinstance(path, SourceFile) else SourceFile(path)
    ctx = FileContext(source.path, source.source, source.tree, source.nodes)
    raw = run_ast_rules(ctx, select=select)
    wanted = set(select)
    if not wanted or "NOQA001" in wanted:
        raw = list(raw) + _noqa_findings(source.path, source.comments)
    table = source.suppressions
    visible = [f for f in raw if not _suppressed(f, table)]
    return sorted(visible), len(raw) - len(visible)


def _validate_select(wanted: Set[str]) -> None:
    """Unknown ``--select`` codes are a configuration error (exit 2),
    not a silently-empty run (exit 0)."""
    if not wanted:
        return
    known = {code for code, _, _ in all_rules()}
    unknown = sorted(wanted - known)
    if unknown:
        raise ConfigurationError(
            f"unknown rule code(s) in --select: {', '.join(unknown)} "
            f"(see 'repro check --list-rules')"
        )


#: The whole-program passes in run order: ``run_checks`` flag, package,
#: entry point, rule table, ``--list-rules`` heading and rationale. The
#: entry point is looked up on its package at call time, so a caller may
#: rebind it there.
_PASSES = (
    ("deep", "repro.checks.flow", "run_flow_checks", "FLOW_RULES",
     "deep (whole-program dataflow)", "Deep (whole-program) pass."),
    ("kernel", "repro.checks.kernel", "run_kernel_checks", "KERNEL_RULES",
     "kernel (slot typestate)", "Kernel (slot-typestate) pass."),
    ("bounds", "repro.checks.bounds", "run_bounds_checks", "BOUNDS_RULES",
     "bounds (hot-path cost)", "Bounds (cost-interpreter) pass."),
)


def run_checks(
    paths: Sequence[Union[str, Path]],
    select: Iterable[str] = (),
    registry: bool = True,
    deep: bool = False,
    kernel: bool = False,
    bounds: bool = False,
    baseline: Optional[Union[str, Path]] = None,
    manifest: Optional[Union[str, Path]] = None,
) -> CheckReport:
    """Run the full static-analysis pass over ``paths``.

    This is the one place findings are filtered: ``select``, ``# repro:
    noqa`` comments and the baseline apply here, once, to every pass.

    Args:
        paths: files and/or directories to lint.
        select: restrict to these rule codes (empty = all).
        registry: also run the API001 registry-conformance pass (only
            meaningful when linting the repro tree itself).
        deep: also run the whole-program dataflow pass
            (:mod:`repro.checks.flow` — FLOW001..FLOW003).
        kernel: also run the slot-typestate pass
            (:mod:`repro.checks.kernel` — KER001..KER004).
        bounds: also run the cost-bound pass
            (:mod:`repro.checks.bounds` — BND001..BND004).
        baseline: findings baseline file, subtracted from the merged
            findings of every pass; ``None`` uses the committed default.
        manifest: hash-schema manifest FLOW003 compares against;
            ``None`` uses the committed default.
    """
    report = CheckReport(deep=deep, kernel=kernel, bounds=bounds)
    wanted = set(select)
    _validate_select(wanted)
    known_baseline = load_baseline(
        baseline if baseline is not None else DEFAULT_BASELINE
    )
    whole_program = deep or kernel or bounds
    files: List[SourceFile] = []
    for path in iter_python_files(paths):
        source = SourceFile(path)
        findings, suppressed = check_file(source, select=wanted)
        report.findings.extend(findings)
        report.suppressed += suppressed
        report.files_checked += 1
        if whole_program:
            files.append(source)
        # Release this tree before the next file is parsed, so a
        # shallow run holds one tree at a time.
        del source
    if registry and (not wanted or "API001" in wanted):
        from repro.checks.registry_checks import check_registries

        report.findings.extend(check_registries())
    # The whole-program passes share one project model of the files
    # parsed above, built when the first of them runs.
    project: Optional[Project] = None
    raw: List[Finding] = []
    for flag, package, entry, rules, _, _ in _PASSES:
        if not getattr(report, flag):
            continue
        module = importlib.import_module(package)
        if wanted and not wanted & set(getattr(module, rules)):
            continue
        if project is None:
            from repro.checks.flow.project import Project

            project = Project(files)
        options = {"manifest_path": manifest} if flag == "deep" else {}
        raw.extend(getattr(module, entry)(project, **options))
    # Each whole-program finding is kept once, in the order the passes
    # produced it, so the first copy's column and steps survive.
    suppressions = {source.path: source.suppressions for source in files}
    seen: Set[Tuple[str, int, str, str]] = set()
    for finding in raw:
        key = (finding.path, finding.line, finding.rule, finding.message)
        if (wanted and finding.rule not in wanted) or key in seen:
            continue
        seen.add(key)
        if _suppressed(finding, suppressions.get(finding.path, {})):
            report.suppressed += 1
        else:
            report.findings.append(finding)
    report.findings, report.baseline_suppressed = apply_baseline(
        report.findings, known_baseline
    )
    report.findings.sort()
    return report


def rules_by_pass() -> List[Tuple[str, List[Tuple[str, str, str]]]]:
    """Rules grouped by pass, for the grouped ``--list-rules`` view.

    Returns ``(pass name, [(code, summary, rationale), ...])`` pairs in
    pass order: shallow, deep, kernel, bounds.
    """
    from repro.checks.registry_checks import RegistryConformance

    rules: List[Rule] = [cls() for cls in AST_RULES]
    rules.append(RegistryConformance())
    shallow = [
        (rule.code, rule.summary, (rule.__doc__ or "").strip())
        for rule in rules
    ]
    shallow.append((
        "NOQA001",
        NOQA001_SUMMARY,
        "Suppressions must name their rules and justify them so the "
        "debt they hide stays reviewable.",
    ))
    groups = [("shallow (per-file AST)", shallow)]
    for _, package, _, rules_name, heading, rationale in _PASSES:
        table: Dict[str, str] = getattr(
            importlib.import_module(package), rules_name
        )
        groups.append((heading, [
            (code, table[code], rationale) for code in sorted(table)
        ]))
    return groups


def all_rules() -> List[Tuple[str, str, str]]:
    """Every rule as ``(code, summary, rationale)``, all passes."""
    return [rule for _, group in rules_by_pass() for rule in group]


def rule_docs() -> Dict[str, str]:
    """Rule code → one-line summary, for the SARIF driver block."""
    return {code: summary for code, summary, _ in all_rules()}


def format_findings(report: CheckReport, fmt: str = "human") -> str:
    """Render a report as ``human`` text, ``json``, or ``sarif``."""
    if fmt == "json":
        return json.dumps(
            {
                "findings": [f.to_dict() for f in report.findings],
                "files_checked": report.files_checked,
                "suppressed": report.suppressed,
                "baseline_suppressed": report.baseline_suppressed,
                "deep": report.deep,
                "kernel": report.kernel,
                "bounds": report.bounds,
                "exit_code": report.exit_code,
            },
            indent=2,
            sort_keys=True,
        )
    if fmt == "sarif":
        from repro import __version__
        from repro.checks.sarif import render_sarif

        return render_sarif(
            report.findings, rule_docs(), tool_version=__version__
        )
    if fmt != "human":
        raise ConfigurationError(
            f"unknown check output format {fmt!r}; use 'human', 'json' "
            f"or 'sarif'"
        )
    lines = [finding.format_human() for finding in report.findings]
    summary = (
        f"{len(report.findings)} finding(s) in {report.files_checked} "
        f"file(s) ({report.suppressed} suppressed via noqa)"
    )
    if report.deep or report.kernel or report.bounds:
        passes = "+".join(
            name for name, on in (("deep", report.deep),
                                  ("kernel", report.kernel),
                                  ("bounds", report.bounds)) if on
        )
        summary += (
            f" [{passes} pass on; {report.baseline_suppressed} baselined]"
        )
    if lines:
        return "\n".join(lines) + "\n" + summary
    return summary
