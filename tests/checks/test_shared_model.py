"""One ``run_checks`` run reads, parses and models the tree once.

The differential tests pin that sharing the parsed files, the project
model and its call graph between the passes changes no finding: the
merged ``--all`` findings equal the sorted union of the shallow run and
three ``run_checks`` runs with one pass on each, each of which builds
its own model. The work-count tests pin the sharing itself, and the
edge tests pin that the call graph, read from ``own_nodes()``, keeps
the edges of a walk of each statement of its own.
"""

from __future__ import annotations

import ast
import os
import sys
import textwrap
import tokenize
from collections import Counter
from pathlib import Path
from typing import List

import pytest

import repro
import repro.checks.engine as engine
import repro.checks.flow.callgraph as callgraph
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
from repro.checks.baseline import DEFAULT_BASELINE, write_baseline
from repro.checks.flow import FLOW_RULES, run_flow_checks
from repro.checks.flow.callgraph import CallGraph
from repro.checks.flow.project import Project, loop_nested_ids
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
    # Call resolutions (by call node) and local environments (by
    # function), wherever a module binds the two call-graph helpers.
    for name, key in (
        ("_resolve_call", lambda project, mod, func, call, *a: (
            "resolve", call
        )),
        ("_local_environment", lambda project, mod, func: (
            "environment", func.qualname
        )),
    ):
        helper = getattr(callgraph, name)
        for module in list(sys.modules.values()):
            if getattr(module, name, None) is helper:
                count(module, name, key)
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
        # The call graph resolves each call node once and builds each
        # function's local environment once; every pass reads them there.
        resolved = {key[1]: n for key, n in counts.items()
                    if isinstance(key, tuple) and key[0] == "resolve"}
        assert set(resolved.values()) == {1}
        assert resolved.keys() == project.call_graph.targets.keys()
        environments = {key[1]: n for key, n in counts.items()
                        if isinstance(key, tuple) and key[0] == "environment"}
        assert environments == dict.fromkeys(project.functions, 1)

    def test_shallow_run_builds_no_project(self, monkeypatch):
        counts = _count_work(monkeypatch)
        run_checks([SRC_REPRO])
        assert counts["project"] == 0
        assert counts["call graph"] == 0
        assert counts["class models"] == 0


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


def _reference_edges(project: Project, func) -> list:
    """``func``'s ``(callee, line, in_loop)`` edges, in order, from a
    walk of each body statement of its own."""
    envs = callgraph._local_environment(project, func.module, func)
    edges = []

    def resolve(call: ast.Call, in_loop: bool) -> None:
        for target in callgraph._resolve_call(
            project, func.module, func, call, *envs
        ):
            edges.append((target.qualname, call.lineno, in_loop))

    for stmt in func.body():
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested = project.functions.get(
                f"{func.qualname}.<locals>.{stmt.name}"
            )
            if nested is not None:
                edges.append((nested.qualname, stmt.lineno, False))
            continue
        nodes = _shallow_walk(stmt)
        looped = loop_nested_ids(nodes)
        for node in nodes:
            if isinstance(node, ast.Call):
                resolve(node, id(node) in looped)
            elif isinstance(node, ast.Lambda):
                for child in ast.walk(node):
                    if isinstance(child, ast.Call):
                        resolve(child, True)
    return edges


class TestCallGraphEdges:
    """The builder reads each statement's run of ``own_nodes()``; its
    edges are those of a walk of each statement of its own."""

    @pytest.mark.parametrize("root", [SRC_REPRO, TESTS],
                             ids=["src-repro", "tests"])
    def test_edges_match_a_per_statement_walk(self, root):
        project = Project([root])
        graph = project.call_graph
        for func in project.functions.values():
            edges = [(site.callee, site.lineno, site.in_loop)
                     for site in graph.successors(func.qualname)]
            assert edges == _reference_edges(project, func), func.qualname

    def test_class_level_call_of_a_local_class_is_no_edge(self, tmp_path):
        root = test_bounds.write_pkg(tmp_path, {"mod.py": """
            def helper():
                return 1

            def outer():
                class Local:
                    size = helper()

                    def method(self):
                        return helper()

                return Local
        """})
        graph = Project([root]).call_graph
        # Like FLOW001's source scan and BND's cost walk, the builder
        # does not enter the class body: the class-level call (line 7)
        # is resolved for no function; the method's call is its own.
        assert graph.successors("pkg.mod.outer") == []
        assert [
            (site.callee, site.lineno)
            for site in graph.successors("pkg.mod.outer.<locals>.Local.method")
        ] == [("pkg.mod.helper", 10)]
        assert [call.lineno for call in graph.targets] == [10]


class TestLoopFlags:
    """An edge is ``in_loop`` when its call runs once per iteration: in
    a loop's body or a ``while`` loop's test. A ``for`` loop's iterable
    and a loop's ``else`` clause run once, unless the loop itself sits
    in another loop's body."""

    @staticmethod
    def flags(graph: CallGraph, caller: str) -> dict:
        return {
            (site.callee.rsplit(".", 1)[-1], site.lineno): site.in_loop
            for site in graph.successors(caller)
        }

    def test_drive_stream_chunks_once_and_spans_per_chunk(self):
        graph = Project([SRC_REPRO]).call_graph
        flags = {
            callee: in_loop for (callee, _), in_loop in self.flags(
                graph, "repro.sim.engine._drive_stream"
            ).items()
        }
        assert flags["iter_chunks"] is False
        assert flags["_span_scalar"] is True
        assert flags["_span_batched"] is True

    def test_iterable_of_a_nested_loop_repeats(self, tmp_path):
        root = test_bounds.write_pkg(tmp_path, {"mod.py": """
            def rows():
                return [[1]]

            def cells(row):
                return row

            def done():
                return 0

            def walk():
                for row in rows():
                    for cell in cells(row):
                        pass
                else:
                    done()
        """})
        graph = Project([root]).call_graph
        assert self.flags(graph, "pkg.mod.walk") == {
            ("rows", 12): False,
            ("cells", 13): True,
            ("done", 16): False,
        }

    def test_while_test_repeats(self, tmp_path):
        root = test_bounds.write_pkg(tmp_path, {"mod.py": """
            def more():
                return False

            def start():
                return 0

            def spin():
                start()
                while more():
                    pass
        """})
        graph = Project([root]).call_graph
        assert self.flags(graph, "pkg.mod.spin") == {
            ("start", 9): False,
            ("more", 10): True,
        }


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
