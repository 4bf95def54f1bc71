"""Committed findings baseline, shared by every ``repro check`` pass.

CI should fail on *new* findings, not on a debt list that predates the
rule. A baseline file maps stable fingerprints of accepted findings to
their text; ``repro check`` subtracts it once from the merged findings
of every pass, and ``--update-baseline`` rewrites it from the current
tree. Fingerprints deliberately exclude line numbers so unrelated edits
above a finding do not churn the file.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Tuple, Union

from repro.checks.findings import Finding
from repro.errors import ConfigurationError

#: Default committed baseline location. The file sits in the deep
#: pass's package, where it began; this module stays out of that
#: package, so that a shallow run does not import the deep pass.
DEFAULT_BASELINE = Path(__file__).resolve().parent / "flow" / "baseline.json"


def _rel_path(path: str) -> str:
    """Repo-stable form of a finding path (``repro/...`` suffix)."""
    parts = Path(path).parts
    if "repro" in parts:
        idx = len(parts) - 1 - list(reversed(parts)).index("repro")
        return "/".join(parts[idx:])
    return Path(path).name


def fingerprint(finding: Finding) -> str:
    """Line-number-free stable identity of a finding."""
    raw = "|".join((finding.rule, _rel_path(finding.path), finding.message))
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:16]


def load_baseline(path: Union[str, Path] = DEFAULT_BASELINE) -> Dict[str, str]:
    """Fingerprint → description map; empty when ``path`` is not a
    regular file (missing, or ``/dev/null``).

    Raises:
        ConfigurationError: the file is unreadable or is not
            ``{"findings": {fingerprint: description}}`` — a corrupt
            baseline must not silently subtract nothing.
    """
    baseline_path = Path(path)
    if not baseline_path.is_file():
        return {}
    try:
        data = json.loads(baseline_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigurationError(
            f"cannot read findings baseline {path}: {exc}"
        ) from exc
    entries = data.get("findings") if isinstance(data, dict) else None
    if not isinstance(entries, dict) or not all(
        isinstance(value, str) for value in entries.values()
    ):
        raise ConfigurationError(
            f"findings baseline {path} is not "
            f'{{"findings": {{fingerprint: description}}}}; regenerate '
            f"it with 'repro check --all --update-baseline'"
        )
    return entries


def write_baseline(
    findings: List[Finding], path: Union[str, Path] = DEFAULT_BASELINE
) -> Path:
    """Rewrite the baseline from the current findings."""
    entries = {
        fingerprint(f): f"{f.rule} {_rel_path(f.path)}: {f.message}"
        for f in sorted(findings)
    }
    baseline_path = Path(path)
    baseline_path.write_text(
        json.dumps({"findings": entries}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return baseline_path


def apply_baseline(
    findings: List[Finding], baseline: Dict[str, str]
) -> Tuple[List[Finding], int]:
    """(new findings, count suppressed by the baseline)."""
    if not baseline:
        return list(findings), 0
    fresh: List[Finding] = []
    suppressed = 0
    for finding in findings:
        if fingerprint(finding) in baseline:
            suppressed += 1
        else:
            fresh.append(finding)
    return fresh, suppressed
