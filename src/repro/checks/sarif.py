"""SARIF 2.1.0 rendering for ``repro check`` findings.

One renderer serves both the shallow and the deep pass — findings are
the same :class:`repro.checks.findings.Finding` shape either way. The
output targets ``github/codeql-action/upload-sarif``, which turns each
result into an inline PR annotation.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List

from repro.checks.findings import Finding

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: Rules whose findings SARIF marks as ``warning`` instead of ``error``
#: (style/hygiene rather than a correctness proof).
_WARNING_RULES = {"NOQA001", "ASSERT001", "BND003", "BND004"}


def _rule_descriptors(
    findings: Iterable[Finding], rule_docs: Dict[str, str]
) -> List[dict]:
    codes = sorted({f.rule for f in findings} | set(rule_docs))
    return [
        {
            "id": code,
            "shortDescription": {
                "text": rule_docs.get(code, code),
            },
            "defaultConfiguration": {
                "level": "warning" if code in _WARNING_RULES else "error",
            },
        }
        for code in codes
    ]


def _location(path: str, line: int, col: int, note: str = "") -> dict:
    physical = {
        "artifactLocation": {
            "uri": path.replace("\\", "/"),
        },
        "region": {
            "startLine": max(1, line),
            # SARIF columns are 1-based; Finding.col is the 0-based AST
            # col_offset.
            "startColumn": max(1, col + 1),
        },
    }
    location: dict = {"physicalLocation": physical}
    if note:
        location["message"] = {"text": note}
    return location


def _result(finding: Finding) -> dict:
    result = {
        "ruleId": finding.rule,
        "level": "warning" if finding.rule in _WARNING_RULES else "error",
        "message": {"text": finding.message},
        "locations": [
            _location(finding.path, finding.line, finding.col)
        ],
    }
    if finding.steps:
        # the intraprocedural path to the bad state (typestate pass) —
        # rendered by SARIF viewers as a step-through trace
        result["codeFlows"] = [
            {
                "threadFlows": [
                    {
                        "locations": [
                            {
                                "location": _location(
                                    finding.path, line, 0, note
                                )
                            }
                            for line, note in finding.steps
                        ]
                    }
                ]
            }
        ]
    return result


def render_sarif(
    findings: Iterable[Finding],
    rule_docs: Dict[str, str],
    tool_version: str = "0",
) -> str:
    """Findings as a SARIF 2.1.0 log (a single run)."""
    findings = list(findings)
    log = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-check",
                        "informationUri": (
                            "https://example.invalid/repro/docs/checks"
                        ),
                        "version": tool_version,
                        "rules": _rule_descriptors(findings, rule_docs),
                    }
                },
                "results": [_result(f) for f in findings],
            }
        ],
    }
    return json.dumps(log, indent=2, sort_keys=True)
