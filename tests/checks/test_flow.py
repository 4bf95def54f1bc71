"""Tests for the whole-program dataflow pass (``repro check --deep``).

Synthetic mini-packages with *known* taint paths, missing hash fields
and hot-loop allocations assert exact findings; a regression test pins
the live ``src/repro`` tree to flow-clean modulo the committed baseline.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

import repro
from repro.checks.flow import (
    analyze,
    fingerprint,
    run_flow_checks,
    write_baseline,
    write_hash_schema,
)
from repro.checks.flow.cachekey import compute_hash_schema, schema_findings
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


def flow(tmp_path: Path, files, select=None):
    """Deep-pass findings over a synthetic package (no baseline)."""
    root = write_pkg(tmp_path, files)
    report = run_flow_checks(
        [root],
        select=select,
        baseline_path=tmp_path / "no-baseline.json",
        manifest_path=tmp_path / "no-manifest.json",
    )
    return report.findings


def rules_of(findings):
    return [f.rule for f in findings]


class TestTaintFLOW001:
    def test_unseeded_random_reachable_from_run_simulation(self, tmp_path):
        # Acceptance criterion (1): random.random() behind one call hop.
        findings = flow(tmp_path, {"sim.py": """\
            import random

            def jitter():
                return random.random()

            def drive(trace):
                return jitter() + len(trace)
        """})
        assert rules_of(findings) == ["FLOW001"]
        assert "random.random" in findings[0].message
        assert "sim.drive" in findings[0].message
        assert findings[0].line == 4

    def test_unreachable_source_is_not_flagged(self, tmp_path):
        findings = flow(tmp_path, {"sim.py": """\
            import random

            def report_banner():
                return random.random()

            def drive(trace):
                return len(trace)
        """})
        assert findings == []

    def test_wall_clock_in_access_method(self, tmp_path):
        findings = flow(tmp_path, {"scheme.py": """\
            import time

            class Scheme:
                def access(self, block):
                    return time.perf_counter()
        """})
        assert rules_of(findings) == ["FLOW001"]
        assert "wall clock" in findings[0].message

    def test_registry_dispatch_is_traversed(self, tmp_path):
        findings = flow(tmp_path, {"reg.py": """\
            import random

            def _noisy(caps):
                return random.random()

            def _quiet(caps):
                return 0.0

            FACTORIES = {"noisy": _noisy, "quiet": _quiet}

            def drive(name, caps):
                factory = FACTORIES[name]
                return factory(caps)
        """})
        assert rules_of(findings) == ["FLOW001"]
        assert findings[0].line == 4

    def test_set_iteration_flagged_and_list_order_safe(self, tmp_path):
        findings = flow(tmp_path, {"sim.py": """\
            def drive(trace):
                labels = {"a", "b"}
                total = 0
                for label in labels:
                    total += len(label)
                for item in ["x", "y"]:
                    total += len(item)
                return total
        """})
        assert rules_of(findings) == ["FLOW001"]
        assert "set" in findings[0].message
        assert findings[0].line == 4

    def test_noqa_with_justification_suppresses(self, tmp_path):
        findings = flow(tmp_path, {"sim.py": """\
            import time

            def drive(trace):
                t0 = time.perf_counter()  # repro: noqa FLOW001 -- timing metadata only
                return len(trace) + 0 * t0
        """})
        assert findings == []

    def test_bound_method_alias_is_resolved(self, tmp_path):
        findings = flow(tmp_path, {"drive.py": """\
            import random

            class Scheme:
                def step(self, block):
                    return random.random()

            def drive(trace):
                scheme = Scheme()
                step = scheme.step
                total = 0.0
                for block in trace:
                    total += step(block)
                return total
        """})
        assert rules_of(findings) == ["FLOW001"]

    def test_cross_module_call_is_resolved(self, tmp_path):
        findings = flow(tmp_path, {
            "__init__.py": "",
            "util.py": """\
                import os

                def salt():
                    return os.getenv("SALT", "")
            """,
            "engine.py": """\
                from pkg.util import salt

                def drive(trace):
                    return salt() + str(len(trace))
            """,
        })
        assert rules_of(findings) == ["FLOW001"]
        assert "environment read" in findings[0].message


class TestCacheKeyFLOW002:
    SPEC = """\
        class FooSpec:
            scheme: str
            retries: int

            def to_dict(self):
                return {"scheme": self.scheme}
    """

    def test_unhashed_field_read_in_executor(self, tmp_path):
        # Acceptance criterion (2): executor reads a field the hash
        # payload omits.
        findings = flow(tmp_path, {
            "__init__.py": "",
            "spec.py": self.SPEC,
            "executor.py": """\
                from pkg.spec import FooSpec

                def execute(spec: FooSpec):
                    return spec.retries
            """,
        }, select=["FLOW002"])
        assert rules_of(findings) == ["FLOW002"]
        assert "FooSpec.retries" in findings[0].message
        assert findings[0].path.endswith("executor.py")

    def test_hashed_field_read_is_clean(self, tmp_path):
        findings = flow(tmp_path, {
            "__init__.py": "",
            "spec.py": self.SPEC,
            "executor.py": """\
                from pkg.spec import FooSpec

                def execute(spec: FooSpec):
                    return spec.scheme
            """,
        }, select=["FLOW002"])
        assert findings == []

    def test_hash_defining_methods_are_exempt(self, tmp_path):
        findings = flow(tmp_path, {"spec.py": """\
            class FooSpec:
                scheme: str
                retries: int

                def to_dict(self):
                    return {"scheme": self.scheme}

                def _hash_payload(self):
                    payload = self.to_dict()
                    payload["retries"] = self.retries
                    return payload
        """}, select=["FLOW002"])
        # retries is hashed via _hash_payload's payload["retries"] key.
        assert findings == []

    def test_local_spec_construction_is_typed(self, tmp_path):
        findings = flow(tmp_path, {"one.py": """\
            class FooSpec:
                scheme: str
                retries: int

                def to_dict(self):
                    return {"scheme": self.scheme}

            def sweep():
                spec = FooSpec()
                return spec.retries
        """}, select=["FLOW002"])
        assert rules_of(findings) == ["FLOW002"]


class TestSchemaFLOW003:
    PKG = {
        "spec.py": """\
            SPEC_VERSION = 3

            class FooSpec:
                scheme: str

                def to_dict(self):
                    return {"scheme": self.scheme}
        """,
    }

    def test_missing_manifest_reported(self, tmp_path):
        findings = flow(tmp_path, self.PKG, select=["FLOW003"])
        assert rules_of(findings) == ["FLOW003"]
        assert "manifest" in findings[0].message

    def test_regenerated_manifest_is_clean(self, tmp_path):
        root = write_pkg(tmp_path, self.PKG)
        manifest = tmp_path / "manifest.json"
        write_hash_schema(Project([root]), manifest)
        findings = schema_findings(Project([root]), manifest)
        assert findings == []

    def test_schema_change_without_version_bump(self, tmp_path):
        root = write_pkg(tmp_path, self.PKG)
        manifest = tmp_path / "manifest.json"
        write_hash_schema(Project([root]), manifest)
        # Grow the hashed schema while leaving SPEC_VERSION untouched.
        spec = root / "spec.py"
        spec.write_text(
            spec.read_text().replace(
                '{"scheme": self.scheme}',
                '{"scheme": self.scheme, "extra": 1}',
            )
        )
        findings = schema_findings(Project([root]), manifest)
        assert rules_of(findings) == ["FLOW003"]
        assert "without a SPEC_VERSION bump" in findings[0].message

    def test_version_bump_requires_regeneration(self, tmp_path):
        root = write_pkg(tmp_path, self.PKG)
        manifest = tmp_path / "manifest.json"
        write_hash_schema(Project([root]), manifest)
        spec = root / "spec.py"
        spec.write_text(spec.read_text().replace(
            "SPEC_VERSION = 3", "SPEC_VERSION = 4"
        ))
        findings = schema_findings(Project([root]), manifest)
        assert rules_of(findings) == ["FLOW003"]
        assert "regenerate" in findings[0].message

    def test_live_tree_schema_matches_manifest(self):
        project = Project([SRC_REPRO])
        assert schema_findings(project) == []
        schema = compute_hash_schema(project)
        assert schema is not None
        assert "RunSpec" in schema["schema"]


class TestHotPathFLOW004:
    def test_list_allocation_in_marked_hot_function(self, tmp_path):
        # Acceptance criterion (3): list(...) inside '# repro: hot'.
        findings = flow(tmp_path, {"fast.py": """\
            # repro: hot
            def drive(refs):
                return list(refs)
        """})
        assert rules_of(findings) == ["FLOW004"]
        assert "list(...)" in findings[0].message

    def test_unmarked_function_is_ignored(self, tmp_path):
        findings = flow(tmp_path, {"slow.py": """\
            def report(refs):
                return list(refs)
        """})
        assert findings == []

    def test_hotness_propagates_through_loop_calls(self, tmp_path):
        findings = flow(tmp_path, {"fast.py": """\
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
        """})
        # helper2 is loop-called from a hot root -> derived hot; its
        # sorted() is flagged. helper is called outside the loop -> cold.
        assert rules_of(findings) == ["FLOW004"]
        assert findings[0].message.startswith("sorted")

    def test_attribute_chase_in_loop(self, tmp_path):
        findings = flow(tmp_path, {"fast.py": """\
            # repro: hot
            def drive(scheme, refs):
                total = 0
                for block in refs:
                    total += scheme.stats.hits
                return total
        """})
        assert rules_of(findings) == ["FLOW004"]
        assert "scheme.stats.hits" in findings[0].message

    def test_tuple_and_displays_are_exempt(self, tmp_path):
        findings = flow(tmp_path, {"fast.py": """\
            # repro: hot
            def drive(refs):
                out = []
                pair = (1, 2)
                box = {}
                for block in refs:
                    out.append(tuple(pair))
                return out, box
        """})
        assert findings == []

    def test_noqa_suppresses_hot_finding(self, tmp_path):
        findings = flow(tmp_path, {"fast.py": """\
            # repro: hot
            def drive(refs):
                return list(refs)  # repro: noqa FLOW004 -- cold tail, runs once
        """})
        assert findings == []


class TestBaseline:
    def test_baseline_subtracts_known_findings(self, tmp_path):
        files = {"fast.py": """\
            # repro: hot
            def drive(refs):
                return list(refs)
        """}
        root = write_pkg(tmp_path, files)
        manifest = tmp_path / "no-manifest.json"
        raw = run_flow_checks(
            [root],
            baseline_path=tmp_path / "missing.json",
            manifest_path=manifest,
        )
        assert len(raw.findings) == 1
        baseline_path = tmp_path / "baseline.json"
        write_baseline(raw.findings, baseline_path)
        again = run_flow_checks(
            [root], baseline_path=baseline_path, manifest_path=manifest
        )
        assert again.findings == []
        assert again.baseline_suppressed == 1

    def test_fingerprint_is_line_number_free(self, tmp_path):
        files = {"fast.py": """\
            # repro: hot
            def drive(refs):
                return list(refs)
        """}
        root = write_pkg(tmp_path, files)
        kwargs = dict(
            baseline_path=tmp_path / "missing.json",
            manifest_path=tmp_path / "no-manifest.json",
        )
        first = run_flow_checks([root], **kwargs).findings[0]
        source = (root / "fast.py").read_text()
        (root / "fast.py").write_text("# a new leading comment\n" + source)
        second = run_flow_checks([root], **kwargs).findings[0]
        assert first.line != second.line
        assert fingerprint(first) == fingerprint(second)


class TestLiveTree:
    def test_src_repro_is_flow_clean_modulo_baseline(self):
        report = run_flow_checks([SRC_REPRO])
        assert report.findings == []

    def test_call_graph_resolves_drive_fanout(self):
        # _drive_stream consumes the trace chunk-wise and delegates each
        # span to the scalar/batched helpers; the dynamic scheme
        # dispatch is resolved one hop below it.
        project, graph = analyze([SRC_REPRO])
        drive = "repro.sim.engine._drive_stream"
        callees = {site.callee for site in graph.successors(drive)}
        assert "repro.sim.engine._span_scalar" in callees
        span = {
            site.callee
            for site in graph.successors("repro.sim.engine._span_scalar")
        }
        assert "repro.hierarchy.ulc.ULCScheme.access" in span
        assert "repro.sim.metrics.MetricsCollector.record" in span

    def test_entry_points_present(self):
        project, _ = analyze([SRC_REPRO])
        names = {f.name for f in project.functions.values()}
        assert {
            "drive", "drive_stream", "collect", "collect_stream",
            "run_specs", "sweep_server_size", "spec_hash",
        } <= names
