"""End-to-end tests for the ``repro check`` CLI command."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro
from repro.cli import main

SRC_REPRO = Path(repro.__file__).resolve().parent

#: A module with one KER004 finding: a hit_run loop that touches every
#: block with no residency guard.
UNGUARDED_HIT_RUN = (
    "class BadPolicy:\n"
    "    def hit_run(self, blocks):\n"
    "        for block in blocks:\n"
    "            self.touch(block)\n"
    "        return len(blocks)\n\n"
    "    def touch(self, block):\n"
    "        pass\n"
)


class TestCheckCommand:
    def test_own_tree_is_clean(self, capsys):
        assert main(["check", str(SRC_REPRO)]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_default_path_is_the_package(self, capsys):
        assert main(["check"]) == 0
        assert "finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nassert True\n")
        assert main(["check", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out
        assert "ASSERT001" in out

    def test_select_restricts_rules(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nassert True\n")
        assert main(["check", str(bad), "--select", "ASSERT001"]) == 1
        out = capsys.readouterr().out
        assert "ASSERT001" in out
        assert "DET001" not in out

    def test_json_format_parses(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n")
        assert main(["check", str(bad), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_code"] == 1
        assert payload["files_checked"] == 1
        assert [f["rule"] for f in payload["findings"]] == ["DET001"]

    def test_missing_path_exits_two(self, capsys):
        assert main(["check", "/no/such/tree"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_list_rules_shows_all_codes(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("DET001", "DET002", "SIM001", "ERR001",
                     "ASSERT001", "FLT001", "SEED001", "API001",
                     "NOQA001", "FLOW001", "FLOW002", "FLOW003",
                     "KER001", "KER002", "KER003", "KER004"):
            assert code in out

    def test_unknown_select_code_exits_two(self, capsys):
        # BND003 carries the hot-path scan; FLOW004 is no rule code.
        for code in ("KER999", "FLOW004"):
            assert main(["check", str(SRC_REPRO), "--select", code]) == 2
            err = capsys.readouterr().err
            assert code in err
            assert "--list-rules" in err

    @pytest.mark.parametrize("flags", [
        ["--all"],
        ["--update-hash-schema", "--hash-schema", "schema.json"],
    ], ids=["all", "update-hash-schema"])
    def test_unparsable_file_exits_two(self, tmp_path, capsys, flags):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "broken.py").write_text("def f(:\n    pass\n")
        flags = [str(tmp_path / f) if f.endswith(".json") else f
                 for f in flags]
        assert main(["check", str(pkg), *flags]) == 2
        err = capsys.readouterr().err
        assert "cannot parse" in err
        assert "broken.py" in err

    @pytest.mark.parametrize("content", [
        "not json",
        "[]",
        '{"findings": []}',
        '{"findings": {"abc": 1}}',
    ], ids=["not-json", "not-an-object", "list-findings", "non-str-entry"])
    def test_corrupt_baseline_exits_two(self, tmp_path, capsys, content):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(content)
        assert main(["check", str(SRC_REPRO / "core"),
                     "--baseline", str(baseline)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "baseline" in err

    @pytest.mark.parametrize(
        "baseline", ["missing.json", "/dev/null"], ids=["missing", "devnull"]
    )
    def test_absent_baseline_is_empty(self, tmp_path, capsys, baseline):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n")
        path = baseline if baseline.startswith("/") else str(
            tmp_path / baseline
        )
        assert main(["check", str(bad), "--baseline", path]) == 1
        assert "DET001" in capsys.readouterr().out


class TestDeepPass:
    def test_own_tree_is_deep_clean(self, capsys):
        assert main(["check", str(SRC_REPRO), "--deep"]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out
        assert "deep pass on" in out

    def test_deep_reports_flow_findings(self, tmp_path, capsys):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "sim.py").write_text(
            "import random  # repro: noqa DET001 -- fixture\n\n"
            "def drive(trace):\n"
            "    return random.random()\n"
        )
        assert main(["check", str(pkg), "--deep",
                     "--baseline", str(tmp_path / "none.json")]) == 1
        out = capsys.readouterr().out
        assert "FLOW001" in out

    def test_sarif_format_parses(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n")
        assert main(["check", str(bad), "--format", "sarif"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-check"
        results = run["results"]
        assert [r["ruleId"] for r in results] == ["DET001"]
        assert results[0]["level"] == "error"
        region = results[0]["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 1
        assert region["startColumn"] >= 1

    def test_output_writes_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n")
        out_path = tmp_path / "report.sarif"
        assert main(["check", str(bad), "--format", "sarif",
                     "--output", str(out_path)]) == 1
        payload = json.loads(out_path.read_text())
        assert payload["runs"][0]["results"][0]["ruleId"] == "DET001"
        # stdout gets a short summary, not the SARIF body
        assert "DET001" not in capsys.readouterr().out.splitlines()[0]

    def test_update_baseline_then_clean(self, tmp_path, capsys):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "sim.py").write_text(
            "import random  # repro: noqa DET001 -- fixture\n\n"
            "def drive(trace):\n"
            "    return random.random()\n"
        )
        baseline = tmp_path / "baseline.json"
        assert main(["check", str(pkg), "--deep",
                     "--update-baseline", "--baseline", str(baseline)]) == 0
        capsys.readouterr()
        payload = json.loads(baseline.read_text())
        assert len(payload["findings"]) == 1
        assert main(["check", str(pkg), "--deep",
                     "--baseline", str(baseline)]) == 0
        assert "1 baselined" in capsys.readouterr().out

    def test_update_hash_schema_roundtrip(self, tmp_path, capsys):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "spec.py").write_text(
            "SPEC_VERSION = 1\n\n\n"
            "class FooSpec:\n"
            "    scheme: str\n\n"
            "    def to_dict(self):\n"
            "        return {\"scheme\": self.scheme}\n"
        )
        manifest = tmp_path / "schema.json"
        assert main(["check", str(pkg), "--deep",
                     "--update-hash-schema",
                     "--hash-schema", str(manifest)]) == 0
        capsys.readouterr()
        payload = json.loads(manifest.read_text())
        assert payload["spec_version"] == 1
        assert payload["schema"]["FooSpec"]["hashed"] == ["scheme"]
        assert main(["check", str(pkg), "--deep",
                     "--baseline", str(tmp_path / "none.json"),
                     "--hash-schema", str(manifest)]) == 0


class TestKernelPass:
    def test_own_tree_is_kernel_clean(self, capsys):
        assert main(["check", str(SRC_REPRO), "--kernel"]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out
        assert "kernel pass on" in out

    def test_deep_and_kernel_combine(self, capsys):
        assert main(["check", str(SRC_REPRO), "--deep", "--kernel"]) == 0
        assert "deep+kernel pass on" in capsys.readouterr().out

    def test_kernel_reports_typestate_findings(self, tmp_path, capsys):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "cache.py").write_text(
            "class IntSlab:\n"
            "    def alloc(self):\n"
            "        return 1\n\n"
            "    def free(self, slot):\n"
            "        pass\n\n\n"
            "class Cache:\n"
            "    def __init__(self):\n"
            "        self.slab = IntSlab()\n\n"
            "    def drop(self):\n"
            "        slot = self.slab.alloc()\n"
            "        self.slab.free(slot)\n"
            "        self.slab.free(slot)\n"
        )
        assert main(["check", str(pkg), "--kernel",
                     "--baseline", str(tmp_path / "none.json")]) == 1
        assert "KER001" in capsys.readouterr().out

    def test_select_can_narrow_to_kernel_rule(self, tmp_path, capsys):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "scheme.py").write_text(
            "import random\n\n\n"
            + UNGUARDED_HIT_RUN
        )
        assert main(["check", str(pkg), "--kernel",
                     "--select", "KER004",
                     "--baseline", str(tmp_path / "none.json")]) == 1
        out = capsys.readouterr().out
        assert "KER004" in out
        assert "DET001" not in out

    def test_sarif_carries_code_flows(self, tmp_path, capsys):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "cache.py").write_text(
            "class IntSlab:\n"
            "    def alloc(self):\n"
            "        return 1\n\n"
            "    def free(self, slot):\n"
            "        pass\n\n\n"
            "class Cache:\n"
            "    def __init__(self):\n"
            "        self.slab = IntSlab()\n\n"
            "    def drop(self):\n"
            "        slot = self.slab.alloc()\n"
            "        self.slab.free(slot)\n"
            "        self.slab.free(slot)\n"
        )
        assert main(["check", str(pkg), "--kernel", "--format", "sarif",
                     "--baseline", str(tmp_path / "none.json")]) == 1
        payload = json.loads(capsys.readouterr().out)
        results = [r for r in payload["runs"][0]["results"]
                   if r["ruleId"] == "KER001"]
        assert results
        flow = results[0]["codeFlows"][0]["threadFlows"][0]["locations"]
        assert len(flow) >= 2

    def test_update_baseline_merges_kernel_findings(self, tmp_path, capsys):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        # one deep (FLOW001) and one kernel (KER004) finding
        (pkg / "sim.py").write_text(
            "import random  # repro: noqa DET001 -- fixture\n\n"
            "def drive(trace):\n"
            "    return random.random()\n"
        )
        (pkg / "scheme.py").write_text(UNGUARDED_HIT_RUN)
        baseline = tmp_path / "baseline.json"
        assert main(["check", str(pkg), "--deep", "--kernel",
                     "--update-baseline", "--baseline", str(baseline)]) == 0
        capsys.readouterr()
        entries = json.loads(baseline.read_text())["findings"].values()
        assert any(e.startswith("FLOW001 ") for e in entries)
        assert any(e.startswith("KER004 ") for e in entries)
        # both passes are now quiet under the shared baseline
        assert main(["check", str(pkg), "--deep", "--kernel",
                     "--baseline", str(baseline)]) == 0
        assert "2 baselined" in capsys.readouterr().out


def _four_pass_fixture(tmp_path):
    """One package with a finding from every pass: DET001 (shallow),
    FLOW001 (deep), KER004 (kernel) and BND001 (bounds)."""
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "sim.py").write_text(
        "import random\n\n\n"
        "def drive(trace):\n"
        "    return random.random()\n"
    )
    (pkg / "scheme.py").write_text(UNGUARDED_HIT_RUN)
    (pkg / "hotpath.py").write_text(
        "class SlowCache:\n"
        "    def __init__(self):\n"
        "        self.table = {}\n\n"
        "    def access(self, block):\n"
        "        for key in self.table:\n"
        "            if key == block:\n"
        "                return True\n"
        "        return False\n"
    )
    return pkg


class TestBoundsPass:
    def test_own_tree_is_bounds_clean(self, capsys):
        assert main(["check", str(SRC_REPRO), "--bounds"]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out
        assert "bounds pass on" in out

    def test_bounds_reports_cost_findings(self, tmp_path, capsys):
        pkg = _four_pass_fixture(tmp_path)
        assert main(["check", str(pkg), "--bounds",
                     "--baseline", str(tmp_path / "none.json")]) == 1
        assert "BND001" in capsys.readouterr().out

    def test_select_can_narrow_to_bounds_rule(self, tmp_path, capsys):
        pkg = _four_pass_fixture(tmp_path)
        assert main(["check", str(pkg), "--bounds",
                     "--select", "BND001",
                     "--baseline", str(tmp_path / "none.json")]) == 1
        out = capsys.readouterr().out
        assert "BND001" in out
        assert "DET001" not in out

    def test_unknown_bnd_select_code_exits_two(self, capsys):
        assert main(["check", str(SRC_REPRO),
                     "--select", "BND999"]) == 2
        assert "BND999" in capsys.readouterr().err

    def test_list_rules_groups_by_pass(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for heading in ("shallow", "deep", "kernel", "bounds"):
            assert heading in out
        for code in ("BND001", "BND002", "BND003", "BND004"):
            assert code in out
        # the bounds group comes after the kernel group
        assert out.index("KER004") < out.index("BND001")


class TestAllPasses:
    def test_own_tree_is_clean_under_all(self, capsys):
        assert main(["check", str(SRC_REPRO), "--all"]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out
        assert "deep+kernel+bounds pass on" in out

    def test_noqa_counts_whole_program_suppressions(self, tmp_path, capsys):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "sim.py").write_text(
            "import random  # repro: noqa DET001 -- fixture\n\n"
            "def drive(trace):\n"
            "    return random.random()  # repro: noqa FLOW001 -- fixture\n"
        )
        assert main(["check", str(pkg), "--all",
                     "--baseline", str(tmp_path / "none.json")]) == 0
        assert "(2 suppressed via noqa)" in capsys.readouterr().out

    def test_all_merges_every_pass(self, tmp_path, capsys):
        pkg = _four_pass_fixture(tmp_path)
        assert main(["check", str(pkg), "--all",
                     "--baseline", str(tmp_path / "none.json")]) == 1
        out = capsys.readouterr().out
        for code in ("DET001", "FLOW001", "KER004", "BND001"):
            assert code in out
        # one combined summary line, not one per pass
        assert out.count("finding(s)") == 1

    def test_merged_sarif_validates_against_schema(self, tmp_path, capsys):
        jsonschema = __import__("pytest").importorskip("jsonschema")
        pkg = _four_pass_fixture(tmp_path)
        assert main(["check", str(pkg), "--all", "--format", "sarif",
                     "--baseline", str(tmp_path / "none.json")]) == 1
        payload = json.loads(capsys.readouterr().out)
        schema = json.loads(
            (Path(__file__).parent / "data"
             / "sarif-2.1.0-subset.schema.json").read_text()
        )
        jsonschema.validate(payload, schema)
        results = payload["runs"][0]["results"]
        rule_ids = {r["ruleId"] for r in results}
        assert {"DET001", "FLOW001", "KER004", "BND001"} <= rule_ids
        bnd = next(r for r in results if r["ruleId"] == "BND001")
        # the dominating loop nest rides along as a codeFlow
        flow = bnd["codeFlows"][0]["threadFlows"][0]["locations"]
        assert len(flow) >= 2

    def test_baseline_round_trip_uses_hash_schema(self, tmp_path, capsys):
        # FLOW003 must be baselined against the manifest the check run
        # compares with, not the committed default.
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        spec = pkg / "spec.py"
        spec.write_text(
            "SPEC_VERSION = 1\n\n\n"
            "class FooSpec:\n"
            "    scheme: str\n\n"
            "    def to_dict(self):\n"
            "        return {\"scheme\": self.scheme}\n"
        )
        manifest = tmp_path / "schema.json"
        assert main(["check", str(pkg), "--update-hash-schema",
                     "--hash-schema", str(manifest)]) == 0
        # a hashed field added without a SPEC_VERSION bump
        spec.write_text(spec.read_text().replace(
            "    scheme: str\n", "    scheme: str\n    size: int\n"
        ).replace(
            '{"scheme": self.scheme}',
            '{"scheme": self.scheme, "size": self.size}',
        ))
        baseline = tmp_path / "baseline.json"
        assert main(["check", str(pkg), "--all", "--update-baseline",
                     "--baseline", str(baseline),
                     "--hash-schema", str(manifest)]) == 0
        capsys.readouterr()
        entries = json.loads(baseline.read_text())["findings"].values()
        assert any(
            e.startswith("FLOW003 ") and "without a SPEC_VERSION bump" in e
            for e in entries
        )
        assert main(["check", str(pkg), "--all",
                     "--baseline", str(baseline),
                     "--hash-schema", str(manifest)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_four_pass_baseline_round_trip(self, tmp_path, capsys):
        pkg = _four_pass_fixture(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main(["check", str(pkg), "--all",
                     "--update-baseline", "--baseline", str(baseline)]) == 0
        capsys.readouterr()
        entries = json.loads(baseline.read_text())["findings"].values()
        for prefix in ("DET001 ", "FLOW001 ", "KER004 ", "BND001 "):
            assert any(e.startswith(prefix) for e in entries), prefix
        # all four passes are now quiet under the one shared baseline
        assert main(["check", str(pkg), "--all",
                     "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out
        assert "baselined" in out

