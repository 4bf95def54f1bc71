"""Tests for the cost-bound pass (``repro check --bounds``).

Grammar units pin the ``# repro: bound`` parser; synthetic
mini-packages with *known* asymptotic bugs assert exact BND001–BND004
findings; interprocedural fixtures show cost composing through the call
graph and stopping at annotation boundaries; a regression test pins the
live ``src/repro`` tree to bounds-clean; and a mutation-injection suite
plants an O(n) scan, a hot-callee allocation and an unbounded chain
walk into a correct toy policy and asserts the checker catches every
planted fault while leaving the unmutated policy clean. BND003 also
covers the bodies ``# repro: hot`` functions reach per reference.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.checks import run_checks
from repro.checks.bounds import BOUNDS_RULES, run_bounds_checks
from repro.checks.bounds.cost import Cost, combine, parse_bound, scale
from repro.checks.bounds.infer import BoundsChecker, CostW
from repro.checks.baseline import write_baseline
from repro.checks.flow.project import Project

SRC_REPRO = Path(repro.__file__).resolve().parent


def write_pkg(tmp_path: Path, files) -> Path:
    """Write ``{relpath: source}`` under ``tmp_path/pkg`` and return it."""
    root = tmp_path / "pkg"
    for relpath, source in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    if not (root / "__init__.py").exists():
        (root / "__init__.py").write_text("", encoding="utf-8")
    return root


def bounds(tmp_path: Path, files, select=None):
    """Bounds-pass findings over a synthetic package (no baseline)."""
    root = write_pkg(tmp_path, files)
    report = run_checks(
        [root],
        select=select or BOUNDS_RULES,
        bounds=True,
        baseline=tmp_path / "no-baseline.json",
    )
    return report.findings


def rules_of(findings):
    return [f.rule for f in findings]


class TestBoundGrammar:
    def test_plain_bounds_parse(self):
        for text, cost in [
            ("# repro: bound O(1) -- constant", Cost.CONST),
            ("# repro: bound O(log n) -- fenwick", Cost.LOG),
            ("# repro: bound O(n) -- full walk", Cost.LINEAR),
            ("# repro: bound O(n log n) -- sort", Cost.NLOGN),
            ("# repro: bound O(n^2) -- pairwise", Cost.QUADRATIC),
            ("# repro: bound O(n^k) -- nested", Cost.TOP),
        ]:
            bound = parse_bound(text, 1, 0)
            assert bound is not None and bound.valid, text
            assert bound.cost is cost
            assert not bound.amortized

    def test_spelling_variants(self):
        for text, cost in [
            ("# repro: bound o(logn) -- squeezed", Cost.LOG),
            ("# repro: bound O(nlogn) -- squeezed", Cost.NLOGN),
            ("# repro: bound O(n2) -- squeezed", Cost.QUADRATIC),
        ]:
            bound = parse_bound(text, 1, 0)
            assert bound is not None and bound.valid
            assert bound.cost is cost

    def test_amortized_flag_and_justification(self):
        bound = parse_bound(
            "# repro: bound O(1) amortized -- geometric slab growth", 3, 4
        )
        assert bound is not None and bound.valid
        assert bound.amortized
        assert bound.justification == "geometric slab growth"
        assert bound.label == "O(1) amortized"
        assert (bound.lineno, bound.col) == (3, 4)

    def test_missing_justification_is_a_problem(self):
        bound = parse_bound("# repro: bound O(n)", 1, 0)
        assert bound is not None and not bound.valid
        assert "justification" in bound.problem

    def test_unknown_expression_is_a_problem(self):
        bound = parse_bound("# repro: bound O(n^3) -- cubic", 1, 0)
        assert bound is not None and not bound.valid
        assert "unknown bound expression" in bound.problem

    def test_malformed_expression_is_a_problem(self):
        bound = parse_bound("# repro: bound linear-ish", 1, 0)
        assert bound is not None and not bound.valid
        assert "malformed" in bound.problem

    def test_non_bound_comments_are_ignored(self):
        assert parse_bound("# repro: hot", 1, 0) is None
        assert parse_bound("# plain comment", 1, 0) is None

    def test_backtick_quoted_marker_is_documentation(self):
        assert parse_bound("# `# repro: bound O(1)` example", 1, 0) is None


class TestCostLattice:
    def test_combine_is_max(self):
        assert combine(Cost.CONST, Cost.LINEAR) is Cost.LINEAR
        assert combine(Cost.NLOGN, Cost.LOG) is Cost.NLOGN
        assert combine(Cost.TOP, Cost.CONST) is Cost.TOP

    def test_scale_composition(self):
        assert scale(Cost.CONST, Cost.LINEAR) is Cost.LINEAR
        assert scale(Cost.LINEAR, Cost.CONST) is Cost.LINEAR
        assert scale(Cost.LINEAR, Cost.LINEAR) is Cost.QUADRATIC
        assert scale(Cost.LOG, Cost.LOG) is Cost.LINEAR
        assert scale(Cost.LINEAR, Cost.LOG) is Cost.NLOGN
        assert scale(Cost.QUADRATIC, Cost.LINEAR) is Cost.TOP
        assert scale(Cost.TOP, Cost.CONST) is Cost.TOP


class TestBudgetsBND001:
    def test_linear_scan_in_access_is_flagged(self, tmp_path):
        findings = bounds(tmp_path, {"cache.py": """\
            class Cache:
                def __init__(self):
                    self.table = {}

                def access(self, block):
                    for key in self.table:
                        if key == block:
                            return True
                    return False
        """}, select=["BND001"])
        assert rules_of(findings) == ["BND001"]
        assert findings[0].line == 5
        assert "O(n)" in findings[0].message
        assert "O(1)" in findings[0].message
        # the finding carries the dominating loop nest as steps
        assert any("loop over" in note for _, note in findings[0].steps)

    def test_declared_bound_accepts_the_walk(self, tmp_path):
        findings = bounds(tmp_path, {"cache.py": """\
            class Cache:
                def __init__(self):
                    self.table = {}

                # repro: bound O(n) -- demotion search walks the gap to
                # the level successor (paper Section 3.2)
                def access(self, block):
                    for key in self.table:
                        if key == block:
                            return True
                    return False
        """})
        assert findings == []

    def test_amortized_bound_accepts_the_walk(self, tmp_path):
        findings = bounds(tmp_path, {"cache.py": """\
            class Cache:
                def __init__(self):
                    self.table = {}

                # repro: bound O(1) amortized -- ghost trim prepaid by
                # the insertions that grew the ghost list
                def access(self, block):
                    for key in self.table:
                        if key == block:
                            return True
                    return False
        """})
        assert findings == []

    def test_cost_composes_interprocedurally(self, tmp_path):
        findings = bounds(tmp_path, {"cache.py": """\
            class Cache:
                def __init__(self):
                    self.table = {}

                def _scan(self):
                    for key in self.table:
                        self.table[key] = False

                def access(self, block):
                    self._scan()
                    return block
        """}, select=["BND001"])
        flagged = {f.message.split(" is ")[0] for f in findings}
        # both the entry and the derived-hot callee exceed their budgets
        assert any("access" in m for m in flagged)
        assert any("_scan" in m for m in flagged)

    def test_annotation_boundary_stops_propagation(self, tmp_path):
        findings = bounds(tmp_path, {"cache.py": """\
            class Cache:
                def __init__(self):
                    self.table = {}

                # repro: bound O(n) -- intentional full sweep, runs only
                # on structural rebalance
                def _scan(self):
                    for key in self.table:
                        self.table[key] = False

                def access(self, block):
                    self._scan()
                    return block
        """})
        # the annotated callee absorbs the debt: the caller sees unit
        # cost and stays within its O(1) budget
        assert findings == []

    def test_nested_loops_infer_quadratic(self, tmp_path):
        findings = bounds(tmp_path, {"cache.py": """\
            class Cache:
                def __init__(self):
                    self.table = {}

                def access(self, block):
                    for key in self.table:
                        for other in self.table:
                            if key == other != block:
                                return True
                    return False
        """}, select=["BND001"])
        assert rules_of(findings) == ["BND001"]
        assert "O(n^2)" in findings[0].message

    SPAN_HOOK = """\
        class Scheme:
            def access(self, client, block):
                return block

            def access_span(self, clients, blocks, metrics):
                for block in blocks:
                    metrics.record(self.access(0, block))


        def _span_scalar(scheme: Scheme, blocks, metrics):
            scheme.access_span(None, blocks, metrics)
    """

    RESCANNING_OVERRIDE = """\


        class RescanningScheme(Scheme):
            def access_span(self, clients, blocks, metrics):
                for block in blocks:
                    for other in blocks:
                        if other == block:
                            metrics.record(self.access(0, block))
    """

    def test_linear_span_hook_fits_the_drive_budget(self, tmp_path):
        findings = bounds(
            tmp_path, {"engine.py": self.SPAN_HOOK}, select=["BND001"]
        )
        assert findings == []

    def test_span_hook_override_rescanning_the_span_is_flagged(
        self, tmp_path
    ):
        # The drive loop calls the hook once per span, so the hook is
        # costed through the drive's O(n) budget: an override that
        # rescans the span for each reference makes the drive O(n^2).
        source = (
            textwrap.dedent(self.SPAN_HOOK)
            + textwrap.dedent(self.RESCANNING_OVERRIDE)
        )
        findings = bounds(
            tmp_path, {"engine.py": source}, select=["BND001"]
        )
        assert rules_of(findings) == ["BND001"]
        assert "_span_scalar" in findings[0].message
        assert "O(n^2)" in findings[0].message


class TestChainWalksBND002:
    def test_unbounded_chain_walk_is_flagged(self, tmp_path):
        findings = bounds(tmp_path, {"walker.py": """\
            SENTINEL = 0


            class Walker:
                def __init__(self):
                    self.next = [0]

                def access(self, block):
                    total = 0
                    while self.next[block] != SENTINEL:
                        total += 1
                    return total
        """}, select=["BND002"])
        assert rules_of(findings) == ["BND002"]
        assert "no structural decrease" in findings[0].message
        assert findings[0].steps

    def test_advancing_cursor_is_clean(self, tmp_path):
        findings = bounds(tmp_path, {"walker.py": """\
            SENTINEL = 0


            class Walker:
                def __init__(self):
                    self.next = [0]

                def access(self, block):
                    cursor = block
                    while self.next[cursor] != SENTINEL:
                        cursor = self.next[cursor]
                    return cursor
        """}, select=["BND002"])
        assert findings == []

    def test_break_counts_as_progress(self, tmp_path):
        findings = bounds(tmp_path, {"walker.py": """\
            SENTINEL = 0


            class Walker:
                def __init__(self):
                    self.next = [0]

                def access(self, block):
                    total = 0
                    while self.next[block] != SENTINEL:
                        total += 1
                        if total > 8:
                            break
                    return total
        """}, select=["BND002"])
        assert findings == []


class TestAllocationsBND003:
    def test_allocation_in_derived_hot_callee(self, tmp_path):
        findings = bounds(tmp_path, {"cache.py": """\
            class Cache:
                def __init__(self):
                    self.table = {}

                def _snapshot(self):
                    return list(self.table)

                def access(self, block):
                    self._snapshot()
                    return block
        """}, select=["BND003"])
        assert rules_of(findings) == ["BND003"]
        assert "list(...) allocation" in findings[0].message
        assert "_snapshot" in findings[0].message

    def test_comprehension_in_derived_hot_callee(self, tmp_path):
        findings = bounds(tmp_path, {"cache.py": """\
            class Cache:
                def __init__(self):
                    self.table = {}

                def _keys(self):
                    return [key for key in self.table]

                def access(self, block):
                    self._keys()
                    return block
        """}, select=["BND003"])
        assert rules_of(findings) == ["BND003"]
        assert "list comprehension" in findings[0].message

    def test_annotated_callee_is_exempt(self, tmp_path):
        findings = bounds(tmp_path, {"cache.py": """\
            class Cache:
                def __init__(self):
                    self.table = {}

                # repro: bound O(n) -- snapshot for the slow rebuild path
                def _snapshot(self):
                    return list(self.table)

                def access(self, block):
                    self._snapshot()
                    return block
        """}, select=["BND003"])
        assert findings == []

    def test_list_allocation_in_marked_hot_function(self, tmp_path):
        findings = bounds(tmp_path, {"fast.py": """\
            # repro: hot
            def drive(refs):
                return list(refs)
        """}, select=["BND003"])
        assert rules_of(findings) == ["BND003"]
        assert "list(...)" in findings[0].message

    def test_unmarked_function_is_ignored(self, tmp_path):
        findings = bounds(tmp_path, {"slow.py": """\
            def report(refs):
                return list(refs)
        """}, select=["BND003"])
        assert findings == []

    def test_hotness_propagates_through_loop_calls(self, tmp_path):
        findings = bounds(tmp_path, {"fast.py": """\
            def helper(block):
                return [block]  # bare display: allowed

            def helper2(block):
                return sorted([block])

            # repro: hot
            def drive(refs):
                total = 0
                for block in refs:
                    total += len(helper2(block))
                helper(refs)
                return total
        """}, select=["BND003"])
        # helper2 is loop-called from a hot root -> derived hot; its
        # sorted() is flagged. helper is called outside the loop -> cold.
        assert rules_of(findings) == ["BND003"]
        assert findings[0].message.startswith("sorted")

    def test_attribute_chase_in_loop(self, tmp_path):
        findings = bounds(tmp_path, {"fast.py": """\
            # repro: hot
            def drive(scheme, refs):
                total = 0
                for block in refs:
                    total += scheme.stats.hits
                return total
        """}, select=["BND003"])
        assert rules_of(findings) == ["BND003"]
        assert "scheme.stats.hits" in findings[0].message

    def test_attribute_chase_in_loop_iterable(self, tmp_path):
        findings = bounds(tmp_path, {"fast.py": """\
            # repro: hot
            def drive(scheme):
                total = 0
                for block in scheme.stats.blocks:
                    for ref in scheme.stats.refs:
                        total += ref
                return total
        """}, select=["BND003"])
        # The outer loop's iterable is read once per call, the inner
        # loop's once per outer iteration.
        assert [(f.rule, f.line) for f in findings] == [("BND003", 5)]
        assert "scheme.stats.refs" in findings[0].message

    def test_tuple_and_displays_are_exempt(self, tmp_path):
        findings = bounds(tmp_path, {"fast.py": """\
            # repro: hot
            def drive(refs):
                out = []
                pair = (1, 2)
                box = {}
                for block in refs:
                    out.append(tuple(pair))
                return out, box
        """}, select=["BND003"])
        assert findings == []

    def test_noqa_suppresses_hot_finding(self, tmp_path):
        findings = bounds(tmp_path, {"fast.py": """\
            # repro: hot
            def drive(refs):
                return list(refs)  # repro: noqa BND003 -- cold tail, runs once
        """}, select=["BND003"])
        assert findings == []

    def test_marked_root_reaches_past_a_declared_bound(self, tmp_path):
        # The budget hot set stops at scan's declared bound; the marked
        # root still reaches helper per reference through scan.
        findings = bounds(tmp_path, {"fast.py": """\
            # repro: hot
            def drive(table, refs):
                total = 0
                for block in refs:
                    total += scan(table, block)
                return total

            # repro: bound O(n) -- walks the table once per reference
            def scan(table, block):
                for key in table:
                    if key == block:
                        return helper(key)
                return 0

            def helper(key):
                return len(sorted([key]))
        """}, select=["BND003"])
        assert rules_of(findings) == ["BND003"]
        assert "sorted(...) allocation" in findings[0].message
        assert "fast.helper" in findings[0].message

    def test_attribute_chase_in_undeclared_victim(self, tmp_path):
        findings = bounds(tmp_path, {"cache.py": """\
            class Cache:
                def __init__(self):
                    self.levels = []
                    self.stats = None

                def victim(self):
                    for level in self.levels:
                        if level is self.stats.owner.level:
                            return level
                    return None
        """}, select=["BND003"])
        assert rules_of(findings) == ["BND003"]
        assert "self.stats.owner.level" in findings[0].message
        assert "Cache.victim" in findings[0].message


class TestAnnotationsBND004:
    def test_unjustified_bound_is_flagged(self, tmp_path):
        findings = bounds(tmp_path, {"cache.py": """\
            class Cache:
                # repro: bound O(n)
                def access(self, block):
                    return block
        """}, select=["BND004"])
        assert rules_of(findings) == ["BND004"]
        assert "invalid bound annotation" in findings[0].message
        assert findings[0].line == 2

    def test_unknown_expression_is_flagged(self, tmp_path):
        findings = bounds(tmp_path, {"cache.py": """\
            class Cache:
                # repro: bound O(n^3) -- cubic has no lattice point
                def access(self, block):
                    return block
        """}, select=["BND004"])
        assert rules_of(findings) == ["BND004"]
        assert "unknown bound expression" in findings[0].message

    def test_orphaned_bound_is_flagged(self, tmp_path):
        findings = bounds(tmp_path, {"cache.py": """\
            class Cache:
                def access(self, block):
                    # repro: bound O(n) -- floating in a body
                    value = block
                    return value
        """}, select=["BND004"])
        assert rules_of(findings) == ["BND004"]
        assert "not attached" in findings[0].message

    def test_stale_bound_on_constant_hot_path(self, tmp_path):
        findings = bounds(tmp_path, {"cache.py": """\
            class Cache:
                # repro: bound O(n) -- claims a scan that is not there
                def access(self, block):
                    return block
        """}, select=["BND004"])
        assert rules_of(findings) == ["BND004"]
        assert "stale bound annotation" in findings[0].message

    def test_annotation_on_cold_code_is_free(self, tmp_path):
        findings = bounds(tmp_path, {"cache.py": """\
            class Cache:
                # repro: bound O(n) -- documentation on a cold helper
                def rebuild(self):
                    return None
        """}, select=["BND004"])
        assert findings == []

    def test_noqa_suppresses_a_bounds_finding(self, tmp_path):
        findings = bounds(tmp_path, {"cache.py": """\
            class Cache:
                def __init__(self):
                    self.table = {}

                def access(self, block):  # repro: noqa BND001 -- fixture
                    for key in self.table:
                        if key == block:
                            return True
                    return False
        """}, select=["BND001"])
        assert findings == []


class TestBaselineRoundTrip:
    def test_baselined_findings_are_subtracted(self, tmp_path):
        files = {"cache.py": """\
            class Cache:
                def __init__(self):
                    self.table = {}

                def access(self, block):
                    for key in self.table:
                        if key == block:
                            return True
                    return False
        """}
        raw = bounds(tmp_path, files)
        assert raw
        baseline_path = tmp_path / "baseline.json"
        write_baseline(raw, baseline_path)
        report = run_checks(
            [tmp_path / "pkg"], bounds=True, baseline=baseline_path
        )
        assert report.findings == []
        assert report.baseline_suppressed == len(raw)


#: A *correct* toy policy: constant-time per reference everywhere.
TOY_POLICY = """\
    class ToyPolicy:
        def __init__(self):
            self.table = {}

        def _bump(self, block):
            self.table[block] = True

        def access(self, block):
            if block in self.table:
                self._bump(block)
                return True
            self.table[block] = False
            return False
"""

#: Each mutation plants a specific asymptotic fault the pass must
#: catch: (name, replace_from, replace_to, expected rule).
COST_MUTATIONS = [
    (
        "planted-linear-scan",
        "    def _bump(self, block):\n"
        "        self.table[block] = True\n",
        "    def _bump(self, block):\n"
        "        for key in self.table:\n"
        "            self.table[key] = True\n",
        "BND001",
    ),
    (
        "planted-hot-allocation",
        "    def _bump(self, block):\n"
        "        self.table[block] = True\n",
        "    def _bump(self, block):\n"
        "        snapshot = list(self.table)\n"
        "        self.table[block] = len(snapshot)\n",
        "BND003",
    ),
    (
        "planted-chain-walk",
        "    def _bump(self, block):\n"
        "        self.table[block] = True\n",
        "    def _bump(self, block):\n"
        "        total = 0\n"
        "        while self.next[0] != 0:\n"
        "            total += 1\n"
        "        self.table[block] = total\n",
        "BND002",
    ),
    (
        "planted-quadratic-nest",
        "    def _bump(self, block):\n"
        "        self.table[block] = True\n",
        "    def _bump(self, block):\n"
        "        for key in self.table:\n"
        "            for other in self.table:\n"
        "                self.table[key] = other\n",
        "BND001",
    ),
]


class TestInjectedCostBugs:
    def test_unmutated_toy_policy_is_clean(self, tmp_path):
        findings = bounds(tmp_path, {"toy.py": TOY_POLICY})
        assert findings == []

    def test_planted_linear_scan_is_detected(self, tmp_path):
        name, src, dst, rule = COST_MUTATIONS[0]
        mutated = textwrap.dedent(TOY_POLICY).replace(src, dst)
        root = write_pkg(tmp_path, {"toy.py": mutated})
        findings = run_bounds_checks([root])
        assert rule in rules_of(findings)

    def test_planted_hot_allocation_is_detected(self, tmp_path):
        name, src, dst, rule = COST_MUTATIONS[1]
        mutated = textwrap.dedent(TOY_POLICY).replace(src, dst)
        root = write_pkg(tmp_path, {"toy.py": mutated})
        findings = run_bounds_checks([root])
        assert rule in rules_of(findings)

    @settings(max_examples=len(COST_MUTATIONS) * 3, deadline=None)
    @given(
        mutation=st.sampled_from(COST_MUTATIONS),
        block_name=st.sampled_from(["block", "ref", "bid"]),
    )
    def test_checker_catches_injected_fault(
        self, tmp_path_factory, mutation, block_name
    ):
        name, src, dst, expected_rule = mutation
        plain = textwrap.dedent(TOY_POLICY)
        assert src in plain, name
        mutated = plain.replace(src, dst).replace("block", block_name)
        tmp_path = tmp_path_factory.mktemp("mut")
        root = write_pkg(tmp_path, {"toy.py": mutated})
        findings = run_bounds_checks([root])
        assert expected_rule in rules_of(findings), (
            f"mutation {name!r} (block spelled {block_name!r}) "
            f"was not caught; findings: {findings}"
        )


class TestLiveTree:
    def test_src_repro_is_bounds_clean(self):
        # Acceptance criterion: the live tree passes with the committed
        # baseline — hot-path cost regressions show up here.
        report = run_checks([SRC_REPRO], select=BOUNDS_RULES, bounds=True)
        assert report.findings == []
        assert report.files_checked > 50

    def test_live_tree_annotations_are_collected(self):
        checker = BoundsChecker(Project([SRC_REPRO]))
        annotated = set(checker.annotations)
        # spot-check the intentional non-constant walks declared in
        # place across the live tree
        assert any(
            q.endswith("UniLRUStack._insert_sorted") for q in annotated
        )
        assert any(q.endswith("LIRSPolicy._prune_stack") for q in annotated)
        assert any(q.endswith("IntSlab.alloc") for q in annotated)
        assert any(q.endswith("CLOCKPolicy.insert") for q in annotated)

    def test_live_tree_infers_fenwick_as_logarithmic(self):
        checker = BoundsChecker(Project([SRC_REPRO]))
        touch = checker.table["repro.core.stack.UniLRUStack.touch"]
        assert touch.cost <= Cost.LOG


class RoundRobinChecker(BoundsChecker):
    """The cost interpreter with the fixpoint solved by plain round-robin
    sweeps that re-evaluate every function: the reference the
    incremental :meth:`BoundsChecker._solve` must match exactly."""

    def _solve(self) -> None:
        self.table = {q: CostW(Cost.CONST) for q in self.project.functions}
        for _ in range(len(Cost) + 1):
            changed = False
            for qualname, func in self.project.functions.items():
                if func.module.in_checks_package():
                    continue
                new = self.eval_function(func)
                if new.cost > self.table[qualname].cost:
                    self.table[qualname] = new
                    changed = True
            if not changed:
                break


def hot_set(checker):
    return {
        qualname: (func.qualname, budget, why)
        for qualname, (func, budget, why) in checker.hot.items()
    }


class TestIncrementalFixpoint:
    def solve_both(self, root, monkeypatch):
        """(incremental checker, its evaluation count, reference)."""
        project = Project([root])
        evaluations = []
        with monkeypatch.context() as patch:
            original = BoundsChecker.eval_function

            def counted(checker, func):
                evaluations.append(func.qualname)
                return original(checker, func)

            patch.setattr(BoundsChecker, "eval_function", counted)
            checker = BoundsChecker(project)
        reference = RoundRobinChecker(project)
        return checker, len(evaluations), reference

    def test_live_tree_matches_round_robin(self, monkeypatch):
        checker, evaluations, reference = self.solve_both(
            SRC_REPRO, monkeypatch
        )
        # CostW equality covers the cost and the witness steps.
        assert checker.table == reference.table
        assert hot_set(checker) == hot_set(reference)
        functions = sum(
            not func.module.in_checks_package()
            for func in checker.project.functions.values()
        )
        # Round robin evaluates every function in each of 6 sweeps.
        assert evaluations <= 2 * functions

    def test_cost_mutations_match_round_robin(
        self, tmp_path_factory, monkeypatch
    ):
        for name, src, dst, _rule in COST_MUTATIONS:
            mutated = textwrap.dedent(TOY_POLICY).replace(src, dst)
            root = write_pkg(tmp_path_factory.mktemp(name), {
                "toy.py": mutated
            })
            checker, _, reference = self.solve_both(root, monkeypatch)
            assert checker.table == reference.table, name
            assert hot_set(checker) == hot_set(reference), name
