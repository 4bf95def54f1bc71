"""Tests for the slot-typestate pass (``repro check --kernel``).

Synthetic mini-packages with *known* slot-lifecycle bugs assert exact
KER001–KER004 findings with exact locations; a regression test pins the
live ``src/repro`` tree to kernel-clean; and a hypothesis test
mutation-injects splice bugs into a correct toy slab consumer and
asserts the checker catches every injected fault while leaving the
unmutated consumer clean.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.checks.baseline import write_baseline
from repro.checks import run_checks
from repro.checks.kernel import KERNEL_RULES, run_kernel_checks

SRC_REPRO = Path(repro.__file__).resolve().parent

#: Minimal stub kernel every fixture package shares — the pass is
#: name-based (constructors matched as bare ``IntSlab``/``IntLinkedList``
#: names), so stub bodies are enough.
KERNEL_STUB = """\
    SENTINEL = 0
    UNLINKED = -1


    class IntSlab:
        def alloc(self):
            return 1

        def free(self, slot):
            pass


    class IntLinkedList:
        def __init__(self, slab=None):
            self.prev = [0]
            self.next = [0]

        @property
        def slab(self):
            return IntSlab()

        def push_front(self, slot):
            return slot

        def push_back(self, slot):
            return slot

        def insert_before(self, slot, anchor):
            return slot

        def remove(self, slot):
            return slot

        def pop_back(self):
            return 1
"""


def write_pkg(tmp_path: Path, files) -> Path:
    """Write ``{relpath: source}`` under ``tmp_path/pkg`` and return it."""
    root = tmp_path / "pkg"
    for relpath, source in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    if not (root / "kernelstub.py").exists():
        (root / "kernelstub.py").write_text(
            textwrap.dedent(KERNEL_STUB), encoding="utf-8"
        )
    if not (root / "__init__.py").exists():
        (root / "__init__.py").write_text("", encoding="utf-8")
    return root


def kernel(tmp_path: Path, files, select=None):
    """Kernel-pass findings over a synthetic package (no baseline)."""
    root = write_pkg(tmp_path, files)
    report = run_checks(
        [root],
        select=select or KERNEL_RULES,
        kernel=True,
        baseline=tmp_path / "no-baseline.json",
    )
    return report.findings


def rules_of(findings):
    return [f.rule for f in findings]


#: A consumer module header shared by the typestate fixtures. Indented
#: to match the test-body literals it is concatenated with, so the
#: combined source dedents cleanly; the header is 6 lines, so fixture
#: class bodies start at line 7.
CONSUMER_HEADER = """\
            from pkg.kernelstub import IntSlab, IntLinkedList

            SENTINEL = 0
            UNLINKED = -1


"""


class TestUseAfterFreeKER001:
    def test_link_array_read_after_free(self, tmp_path):
        findings = kernel(tmp_path, {"cache.py": CONSUMER_HEADER + """\
            class Cache:
                def __init__(self):
                    self.slab = IntSlab()
                    self.lru = IntLinkedList(self.slab)

                def evict_and_peek(self):
                    victim = self.lru.pop_back()
                    self.slab.free(victim)
                    nxt = self.lru.next
                    return nxt[victim]
        """})
        assert rules_of(findings) == ["KER001"]
        assert findings[0].line == 16
        assert "use-after-free" in findings[0].message
        assert "`victim`" in findings[0].message
        # the finding carries the path to the bad state
        assert any("freed" in note for _, note in findings[0].steps)

    def test_splice_write_after_free(self, tmp_path):
        findings = kernel(tmp_path, {"cache.py": CONSUMER_HEADER + """\
            class Cache:
                def __init__(self):
                    self.slab = IntSlab()
                    self.lru = IntLinkedList(self.slab)

                def bad_splice(self):
                    prv = self.lru.prev
                    victim = self.lru.pop_back()
                    self.slab.free(victim)
                    prv[victim] = SENTINEL
        """})
        assert rules_of(findings) == ["KER001"]
        assert findings[0].line == 16

    def test_relink_after_free(self, tmp_path):
        findings = kernel(tmp_path, {"cache.py": CONSUMER_HEADER + """\
            class Cache:
                def __init__(self):
                    self.slab = IntSlab()
                    self.lru = IntLinkedList(self.slab)

                def resurrect(self):
                    victim = self.lru.pop_back()
                    self.slab.free(victim)
                    self.lru.push_front(victim)
        """})
        assert rules_of(findings) == ["KER001"]
        assert findings[0].line == 15

    def test_double_free(self, tmp_path):
        findings = kernel(tmp_path, {"cache.py": CONSUMER_HEADER + """\
            class Cache:
                def __init__(self):
                    self.slab = IntSlab()
                    self.lru = IntLinkedList(self.slab)

                def drop(self):
                    victim = self.lru.pop_back()
                    self.slab.free(victim)
                    self.slab.free(victim)
        """})
        assert rules_of(findings) == ["KER001"]
        assert findings[0].line == 15
        assert "double free" in findings[0].message

    def test_free_on_one_branch_flags_later_use(self, tmp_path):
        findings = kernel(tmp_path, {"cache.py": CONSUMER_HEADER + """\
            class Cache:
                def __init__(self):
                    self.slab = IntSlab()
                    self.lru = IntLinkedList(self.slab)

                def maybe_drop(self, cond):
                    victim = self.lru.pop_back()
                    if cond:
                        self.slab.free(victim)
                    return self.lru.next[victim]
        """})
        assert rules_of(findings) == ["KER001"]
        assert findings[0].line == 16

    def test_pop_then_free_is_clean(self, tmp_path):
        findings = kernel(tmp_path, {"cache.py": CONSUMER_HEADER + """\
            class Cache:
                def __init__(self):
                    self.slab = IntSlab()
                    self.lru = IntLinkedList(self.slab)

                def evict(self):
                    prv = self.lru.prev
                    nxt = self.lru.next
                    tail = prv[SENTINEL]
                    p = prv[tail]
                    nxt[p] = SENTINEL
                    prv[SENTINEL] = p
                    prv[tail] = UNLINKED
                    nxt[tail] = UNLINKED
                    self.slab.free(tail)
                    return tail
        """})
        assert findings == []

    def test_noqa_with_justification_suppresses(self, tmp_path):
        findings = kernel(tmp_path, {"cache.py": CONSUMER_HEADER + """\
            class Cache:
                def __init__(self):
                    self.slab = IntSlab()
                    self.lru = IntLinkedList(self.slab)

                def drop(self):
                    victim = self.lru.pop_back()
                    self.slab.free(victim)
                    self.slab.free(victim)  # repro: noqa KER001 -- test
        """})
        assert findings == []


class TestSlotLeakKER002:
    def test_alloc_linked_only_on_one_branch(self, tmp_path):
        findings = kernel(tmp_path, {"cache.py": CONSUMER_HEADER + """\
            class Cache:
                def __init__(self):
                    self.slab = IntSlab()
                    self.lru = IntLinkedList(self.slab)

                def insert(self, block):
                    slot = self.slab.alloc()
                    if block > 0:
                        self.lru.push_front(slot)
                    return None
        """})
        assert rules_of(findings) == ["KER002"]
        # anchored at the allocation, where the fix belongs
        assert findings[0].line == 13
        assert "slot leak" in findings[0].message

    def test_alloc_dropped_on_error_path(self, tmp_path):
        findings = kernel(tmp_path, {"cache.py": CONSUMER_HEADER + """\
            class Cache:
                def __init__(self):
                    self.slab = IntSlab()
                    self.lru = IntLinkedList(self.slab)

                def insert(self, block):
                    slot = self.slab.alloc()
                    if block < 0:
                        raise ValueError(block)
                    self.lru.push_front(slot)
                    return slot
        """})
        assert rules_of(findings) == ["KER002"]
        assert findings[0].line == 13

    def test_store_discharges(self, tmp_path):
        findings = kernel(tmp_path, {"cache.py": CONSUMER_HEADER + """\
            class Cache:
                def __init__(self):
                    self.slab = IntSlab()
                    self.lru = IntLinkedList(self.slab)
                    self.table = {}

                def insert(self, block):
                    slot = self.slab.alloc()
                    self.table[block] = slot
                    self.lru.push_front(slot)
                    return slot
        """})
        assert findings == []

    def test_return_discharges(self, tmp_path):
        findings = kernel(tmp_path, {"cache.py": CONSUMER_HEADER + """\
            class Cache:
                def __init__(self):
                    self.slab = IntSlab()

                def grab(self):
                    return self.slab.alloc()
        """})
        assert findings == []

    def test_free_discharges(self, tmp_path):
        findings = kernel(tmp_path, {"cache.py": CONSUMER_HEADER + """\
            class Cache:
                def __init__(self):
                    self.slab = IntSlab()

                def churn(self):
                    slot = self.slab.alloc()
                    self.slab.free(slot)
        """})
        assert findings == []


class TestCrossSlabKER003:
    def test_slot_crosses_into_foreign_list(self, tmp_path):
        findings = kernel(tmp_path, {"cache.py": CONSUMER_HEADER + """\
            class Cache:
                def __init__(self):
                    self.hot = IntLinkedList()
                    self.cold = IntLinkedList()

                def promote(self):
                    slot = self.cold.pop_back()
                    self.hot.push_front(slot)
        """})
        assert rules_of(findings) == ["KER003"]
        assert findings[0].line == 14
        assert "cross-slab" in findings[0].message

    def test_same_slab_cross_list_is_clean(self, tmp_path):
        findings = kernel(tmp_path, {"cache.py": CONSUMER_HEADER + """\
            class Cache:
                def __init__(self):
                    self.slab = IntSlab()
                    self.hot = IntLinkedList(self.slab)
                    self.cold = IntLinkedList(self.slab)

                def promote(self):
                    slot = self.cold.pop_back()
                    self.hot.push_front(slot)
        """})
        assert findings == []

    def test_free_against_foreign_slab(self, tmp_path):
        findings = kernel(tmp_path, {"cache.py": CONSUMER_HEADER + """\
            class Cache:
                def __init__(self):
                    self.slab = IntSlab()
                    self.other = IntSlab()
                    self.lru = IntLinkedList(self.slab)

                def drop(self):
                    victim = self.lru.pop_back()
                    self.other.free(victim)
        """})
        assert rules_of(findings) == ["KER003"]
        assert findings[0].line == 15

    def test_foreign_index_into_link_array(self, tmp_path):
        findings = kernel(tmp_path, {"cache.py": CONSUMER_HEADER + """\
            class Cache:
                def __init__(self):
                    self.hot = IntLinkedList()
                    self.cold = IntLinkedList()

                def peek(self):
                    slot = self.cold.pop_back()
                    return self.hot.next[slot]
        """})
        assert rules_of(findings) == ["KER003"]
        assert findings[0].line == 14


class TestBatchContractKER004:
    @pytest.mark.parametrize("mutator", ["touch", "move_to_end"])
    def test_unguarded_fast_path_touch(self, tmp_path, mutator):
        findings = kernel(tmp_path, {"policy.py": f"""\
            class Policy:
                def hit_run(self, blocks):
                    for block in blocks:
                        self.order.{mutator}(block)
                    return len(blocks)
        """})
        assert rules_of(findings) == ["KER004"]
        assert findings[0].line == 4
        assert "unguarded fast path" in findings[0].message

    def test_conditional_mutator_is_guarded(self, tmp_path):
        findings = kernel(tmp_path, {"policy.py": """\
            class Policy:
                def hit_run(self, blocks):
                    for block in blocks:
                        if block in self.resident:
                            self.touch(block)
                    return len(blocks)

                def touch(self, block):
                    pass
        """})
        assert findings == []

    def test_escape_guard_counts(self, tmp_path):
        findings = kernel(tmp_path, {"policy.py": """\
            class Policy:
                def hit_run(self, blocks):
                    n = 0
                    for block in blocks:
                        if block not in self.resident:
                            break
                        self.touch(block)
                        n += 1
                    return n

                def touch(self, block):
                    pass
        """})
        assert findings == []

    def test_pre_checked_loop_counts(self, tmp_path):
        findings = kernel(tmp_path, {"policy.py": """\
            class Policy:
                def hit_run(self, blocks):
                    probe = self.probe(blocks)
                    if len(blocks) <= len(probe):
                        for block in probe:
                            self.touch(block)
                    return len(probe)

                def touch(self, block):
                    pass

                def probe(self, blocks):
                    return blocks
        """})
        assert findings == []


class TestReporting:
    def test_steps_render_in_json_payload(self, tmp_path):
        findings = kernel(tmp_path, {"cache.py": CONSUMER_HEADER + """\
            class Cache:
                def __init__(self):
                    self.slab = IntSlab()
                    self.lru = IntLinkedList(self.slab)

                def drop(self):
                    victim = self.lru.pop_back()
                    self.slab.free(victim)
                    self.slab.free(victim)
        """})
        payload = findings[0].to_dict()
        assert payload["rule"] == "KER001"
        assert [s["line"] for s in payload["steps"]] == [
            line for line, _ in findings[0].steps
        ]
        assert len(payload["steps"]) >= 2

    def test_sarif_code_flows(self, tmp_path):
        import json

        from repro.checks.sarif import render_sarif

        findings = kernel(tmp_path, {"cache.py": CONSUMER_HEADER + """\
            class Cache:
                def __init__(self):
                    self.slab = IntSlab()
                    self.lru = IntLinkedList(self.slab)

                def drop(self):
                    victim = self.lru.pop_back()
                    self.slab.free(victim)
                    self.slab.free(victim)
        """})
        log = json.loads(render_sarif(findings, dict(KERNEL_RULES)))
        result = log["runs"][0]["results"][0]
        locations = result["codeFlows"][0]["threadFlows"][0]["locations"]
        lines = [
            loc["location"]["physicalLocation"]["region"]["startLine"]
            for loc in locations
        ]
        assert lines == sorted(lines)
        assert len(lines) >= 2

    def test_messages_are_line_number_free(self, tmp_path):
        import re

        findings = kernel(tmp_path, {"cache.py": CONSUMER_HEADER + """\
            class Cache:
                def __init__(self):
                    self.slab = IntSlab()
                    self.lru = IntLinkedList(self.slab)

                def drop(self):
                    victim = self.lru.pop_back()
                    self.slab.free(victim)
                    self.slab.free(victim)
        """})
        # baseline fingerprints hash the message, so messages must not
        # embed line numbers (they live in .line and .steps instead)
        assert not re.search(r"line \d+", findings[0].message)

    def test_baseline_subtracts_kernel_findings(self, tmp_path):
        files = {"cache.py": CONSUMER_HEADER + """\
            class Cache:
                def __init__(self):
                    self.slab = IntSlab()
                    self.lru = IntLinkedList(self.slab)

                def drop(self):
                    victim = self.lru.pop_back()
                    self.slab.free(victim)
                    self.slab.free(victim)
        """}
        raw = kernel(tmp_path, files)
        assert raw
        baseline_path = tmp_path / "baseline.json"
        write_baseline(raw, baseline_path)
        report = run_checks(
            [tmp_path / "pkg"], kernel=True, baseline=baseline_path
        )
        assert report.findings == []
        assert report.baseline_suppressed == len(raw)


#: A *correct* toy consumer: every alloc is stored + linked, every evict
#: unlinks before freeing, one slab per cache.
TOY_CONSUMER = """\
    from pkg.kernelstub import IntSlab, IntLinkedList

    SENTINEL = 0
    UNLINKED = -1


    class ToyCache:
        def __init__(self):
            self.slab = IntSlab()
            self.lru = IntLinkedList(self.slab)
            self.spare = IntLinkedList()
            self.table = {}

        def insert(self, block):
            slot = self.slab.alloc()
            self.table[block] = slot
            self.lru.push_front(slot)
            return slot

        def evict(self):
            victim = self.lru.pop_back()
            self.slab.free(victim)
            return victim
"""

#: Each mutation turns the correct consumer into a specific fault the
#: pass must catch: (name, replace_from, replace_to, expected rule).
SPLICE_MUTATIONS = [
    (
        "read-links-after-free",
        "        self.slab.free(victim)\n        return victim\n",
        "        self.slab.free(victim)\n"
        "        return self.lru.next[victim]\n",
        "KER001",
    ),
    (
        "double-free",
        "        self.slab.free(victim)\n        return victim\n",
        "        self.slab.free(victim)\n"
        "        self.slab.free(victim)\n"
        "        return victim\n",
        "KER001",
    ),
    (
        "relink-freed-slot",
        "        self.slab.free(victim)\n        return victim\n",
        "        self.slab.free(victim)\n"
        "        self.lru.push_front(victim)\n"
        "        return victim\n",
        "KER001",
    ),
    (
        "leak-on-branch",
        "        slot = self.slab.alloc()\n"
        "        self.table[block] = slot\n"
        "        self.lru.push_front(slot)\n"
        "        return slot\n",
        "        slot = self.slab.alloc()\n"
        "        if block > 0:\n"
        "            self.lru.push_front(slot)\n"
        "        return None\n",
        "KER002",
    ),
    (
        "cross-slab-splice",
        "        self.slab.free(victim)\n        return victim\n",
        "        self.spare.push_front(victim)\n        return victim\n",
        "KER003",
    ),
]


class TestInjectedSpliceBugs:
    def test_unmutated_toy_consumer_is_clean(self, tmp_path):
        findings = kernel(tmp_path, {"toy.py": TOY_CONSUMER})
        assert findings == []

    @settings(max_examples=len(SPLICE_MUTATIONS) * 4, deadline=None)
    @given(
        mutation=st.sampled_from(SPLICE_MUTATIONS),
        victim_name=st.sampled_from(["victim", "tail_slot", "v"]),
    )
    def test_checker_catches_injected_fault(
        self, tmp_path_factory, mutation, victim_name
    ):
        name, src, dst, expected_rule = mutation
        mutated = textwrap.dedent(TOY_CONSUMER)
        assert src in mutated, name
        mutated = mutated.replace(src, dst).replace("victim", victim_name)
        tmp_path = tmp_path_factory.mktemp("mut")
        root = write_pkg(tmp_path, {"toy.py": mutated})
        findings = run_kernel_checks([root])
        assert expected_rule in rules_of(findings), (
            f"mutation {name!r} (victim spelled {victim_name!r}) "
            f"was not caught; findings: {findings}"
        )


class TestLiveTree:
    def test_src_repro_is_kernel_clean(self):
        # Acceptance criterion: the live tree passes with the committed
        # (empty-for-KER) baseline — regressions show up here.
        report = run_checks([SRC_REPRO], select=KERNEL_RULES, kernel=True)
        assert report.findings == []
        assert report.files_checked > 50

    def test_live_tree_models_the_slab_consumers(self):
        # the pass only means something if it actually resolves the
        # live slot spaces — spot-check the model directly
        from repro.checks.flow.project import Project
        from repro.checks.kernel.model import (
            ListRole,
            ListSetRole,
            SlabRole,
            build_class_models,
        )

        project = Project([SRC_REPRO])
        models = {
            cls.name: model
            for cls, model in (
                (m.cls, m)
                for m in build_class_models(project).values()
            )
            if model.attrs
        }
        stack = models["UniLRUStack"]
        assert isinstance(stack.role_of("_slab"), SlabRole)
        assert isinstance(stack.role_of("_global"), ListRole)
        assert isinstance(stack.role_of("_levels"), ListSetRole)
        assert stack.role_of("_global").space == stack.role_of("_slab").space
        assert stack.role_of("_levels").space == stack.role_of("_slab").space
        server = models["ULCServer"]
        assert isinstance(server.role_of("_glru"), ListRole)

    def test_live_tree_summaries_capture_release_idiom(self):
        from repro.checks.flow.project import Project
        from repro.checks.kernel.model import (
            build_class_models,
            build_summaries,
        )

        project = Project([SRC_REPRO])
        summaries = build_summaries(project, build_class_models(project))
        frees = {
            qualname for qualname, s in summaries.items() if s.frees
        }
        allocs = {
            qualname
            for qualname, s in summaries.items()
            if s.returns_alloc is not None
        }
        assert any(q.endswith("ULCServer._release_slot") for q in frees)
        assert any(q.endswith("ULCServer._alloc") for q in allocs)
        assert any(q.endswith("UniLRUStack._alloc") for q in allocs)
