"""One ``run_checks`` run reads, parses and models the tree once.

The differential tests pin that sharing the parsed files, the project
model and its call graph between the passes changes no finding: the
merged ``--all`` findings equal the sorted union of the shallow run and
three ``run_checks`` runs with one pass on each, each of which builds
its own model. The work-count tests pin the sharing itself.
"""

from __future__ import annotations

import ast
import os
import textwrap
import tokenize
from collections import Counter
from pathlib import Path
from typing import List

import pytest

import repro
import repro.checks.engine as engine
import repro.checks.kernel.model as kernel_model
from repro.checks import run_checks
from repro.checks.bounds import BOUNDS_RULES, run_bounds_checks
from repro.checks.bounds.cost import bounds_by_line
from repro.checks.engine import (
    _NOQA_RE,
    BOUND_RE,
    SourceFile,
    _comment_tokens,
    _noqa_findings,
    iter_python_files,
)
from repro.checks.flow import (
    DEFAULT_BASELINE,
    FLOW_RULES,
    run_flow_checks,
    write_baseline,
)
from repro.checks.flow.callgraph import CallGraph
from repro.checks.flow.project import Project
from repro.checks.kernel import KERNEL_RULES, run_kernel_checks
from repro.errors import ConfigurationError
from tests.checks import test_bounds, test_kernel
from tests.checks.test_check_cli import _four_pass_fixture

SRC_REPRO = Path(repro.__file__).resolve().parent
TESTS = Path(__file__).resolve().parents[1]

PASS_ENTRY_POINTS = (run_flow_checks, run_kernel_checks, run_bounds_checks)

#: ``run_checks`` options that turn exactly one whole-program pass on.
ONE_PASS = (
    dict(deep=True, select=FLOW_RULES),
    dict(kernel=True, select=KERNEL_RULES),
    dict(bounds=True, select=BOUNDS_RULES),
)


def _cost_mutant(tmp_path: Path, mutation) -> Path:
    _name, src, dst, _rule = mutation
    mutated = textwrap.dedent(test_bounds.TOY_POLICY).replace(src, dst)
    return test_bounds.write_pkg(tmp_path, {"toy.py": mutated})


def _splice_mutant(tmp_path: Path, mutation) -> Path:
    _name, src, dst, _rule = mutation
    mutated = textwrap.dedent(test_kernel.TOY_CONSUMER).replace(src, dst)
    return test_kernel.write_pkg(tmp_path, {"toy.py": mutated})


FIXTURES = (
    [pytest.param(lambda tmp_path: SRC_REPRO, id="src-repro"),
     pytest.param(_four_pass_fixture, id="four-pass")]
    + [
        pytest.param(
            lambda tmp_path, m=mutation: _cost_mutant(tmp_path, m),
            id=f"cost-{mutation[0]}",
        )
        for mutation in test_bounds.COST_MUTATIONS
    ]
    + [
        pytest.param(
            lambda tmp_path, m=mutation: _splice_mutant(tmp_path, m),
            id=f"splice-{mutation[0]}",
        )
        for mutation in test_kernel.SPLICE_MUTATIONS
    ]
)


class TestMergedRunMatchesSeparatePasses:
    @pytest.mark.parametrize("build", FIXTURES)
    def test_raw_findings_are_identical(self, tmp_path, build):
        root = build(tmp_path)
        merged = run_checks(
            [root], deep=True, kernel=True, bounds=True, baseline=os.devnull
        )
        separate = run_checks([root], baseline=os.devnull).findings
        for options in ONE_PASS:
            separate += run_checks(
                [root], baseline=os.devnull, **options
            ).findings
        # Finding equality covers rule, path, line, col, message, steps.
        assert merged.findings == sorted(separate)
        if root is not SRC_REPRO:
            assert merged.findings, "fixture has no finding to compare"

    def test_baseline_counts_are_identical(self, tmp_path):
        root = _four_pass_fixture(tmp_path)
        baseline = tmp_path / "baseline.json"
        write_baseline(run_checks(
            [root], deep=True, kernel=True, bounds=True, baseline=os.devnull
        ).findings, baseline)
        merged = run_checks(
            [root], deep=True, kernel=True, bounds=True, baseline=baseline
        )
        separate = run_checks([root], baseline=baseline).baseline_suppressed
        for options in ONE_PASS:
            separate += run_checks(
                [root], baseline=baseline, **options
            ).baseline_suppressed
        assert merged.findings == []
        assert merged.baseline_suppressed == separate > 0


def _count_work(monkeypatch) -> Counter:
    """Count file reads, parses, tree walks (by root), tokenizer runs,
    comment tokenizations (by source text) and model builds."""
    counts: Counter = Counter()

    def count(owner, name, key):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[key(*args, **kwargs)] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(Path, "read_text", lambda path, *a, **k: ("read", str(path)))
    count(ast, "parse", lambda source, filename="<unknown>", *a, **k: (
        "parse", str(filename)
    ))
    count(ast, "walk", lambda node: ("walk", node))
    count(tokenize, "generate_tokens", lambda *a, **k: "tokenize")
    count(engine, "_comment_tokens", lambda source: ("comments", source))
    count(Project, "__init__", lambda *a, **k: "project")
    count(CallGraph, "__init__", lambda *a, **k: "call graph")
    count(kernel_model, "build_class_models", lambda *a, **k: "class models")
    return counts


def _keep_projects(monkeypatch) -> List[Project]:
    """Every :class:`Project` built from now on, in build order."""
    built: List[Project] = []
    init = Project.__init__

    def keep(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Project, "__init__", keep)
    return built


class TestWorkCounts:
    def test_all_run_does_each_piece_of_work_once(self, monkeypatch):
        files = [str(path) for path in iter_python_files([SRC_REPRO])]
        sources = [Path(f).read_text(encoding="utf-8") for f in files]
        counts = _count_work(monkeypatch)
        projects = _keep_projects(monkeypatch)
        report = run_checks([SRC_REPRO], deep=True, kernel=True, bounds=True)
        assert report.findings == []
        assert {f: counts[("read", f)] for f in files} == dict.fromkeys(
            files, 1
        )
        parses = {key[1]: n for key, n in counts.items()
                  if isinstance(key, tuple) and key[0] == "parse"}
        assert parses == dict.fromkeys(files, 1)
        # Only files that hold a noqa or bound directive are tokenized,
        # each once (the others have no comment either reader acts on).
        tokenized = {key[1]: n for key, n in counts.items()
                     if isinstance(key, tuple) and key[0] == "comments"}
        assert tokenized == dict.fromkeys(
            (text for text in sources
             if _NOQA_RE.search(text) or BOUND_RE.search(text)), 1
        )
        assert counts["tokenize"] == len(tokenized)
        assert counts[("read", str(DEFAULT_BASELINE))] == 1
        assert counts["project"] == 1
        assert counts["call graph"] == 1
        assert counts["class models"] == 1
        # Every pass reads the shared node sequences: each module tree
        # is walked exactly once, each function node at most once.
        (project,) = projects
        walks = {key[1]: n for key, n in counts.items()
                 if isinstance(key, tuple) and key[0] == "walk"}
        assert [walks.get(mod.tree) for mod in project.modules.values()] \
            == [1] * len(files)
        assert {walks.get(func.node, 0)
                for func in project.functions.values()} <= {0, 1}

    def test_shallow_run_builds_no_project(self, monkeypatch):
        counts = _count_work(monkeypatch)
        run_checks([SRC_REPRO])
        assert counts["project"] == 0
        assert counts["call graph"] == 0
        assert counts["class models"] == 0


@pytest.mark.parametrize("run", PASS_ENTRY_POINTS,
                         ids=lambda run: run.__name__)
def test_pass_entry_points_reject_unparsable_file(tmp_path, run):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "broken.py").write_text("def f(:\n    pass\n")
    with pytest.raises(ConfigurationError, match="cannot parse"):
        run([pkg])


def _directives(comments):
    """The comment tokens holding a noqa or bound directive."""
    return [token for token in comments
            if _NOQA_RE.search(token[2]) or BOUND_RE.search(token[2])]


class TestDirectiveFilter:
    """``SourceFile.comments`` skips the tokenizer in files without a
    directive, and its readers see the same directives either way."""

    @pytest.mark.parametrize("root", [SRC_REPRO, TESTS],
                             ids=["src-repro", "tests"])
    def test_directives_match_a_full_tokenize(self, root):
        for path in iter_python_files([root]):
            source = SourceFile(path)
            full = _comment_tokens(source.source)
            assert _directives(source.comments) == _directives(full), path
            assert _noqa_findings(source.path, source.comments) \
                == _noqa_findings(source.path, full), path
            assert bounds_by_line(source.comments) == bounds_by_line(full), \
                path

    def test_directive_only_in_a_string_is_no_directive(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(
            'HELP = "# repro: noqa"\n'
            'MORE = "# repro: bound O(n)"  # a comment, not a directive\n'
        )
        assert _directives(SourceFile(path).comments) == []
        assert bounds_by_line(SourceFile(path).comments) == {}
        assert run_checks([path], registry=False).findings == []

    def test_comments_without_a_directive_skip_the_tokenizer(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "mod.py"
        path.write_text("# a comment\nx = 1  # another, repro: nothing\n")
        counts = _count_work(monkeypatch)
        assert SourceFile(path).comments == []
        assert counts["tokenize"] == 0

    def test_bare_noqa_comment_is_still_reported(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text("x = 1  # repro: noqa\n")
        report = run_checks([path], registry=False)
        assert [(f.rule, f.line) for f in report.findings] == [("NOQA001", 1)]
