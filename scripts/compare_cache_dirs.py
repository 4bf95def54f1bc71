"""Check that two result-cache directories hold the same results.

Usage (from the repository root)::

    python scripts/compare_cache_dirs.py CACHE_A CACHE_B

Both directories must hold entries for the same spec hashes, and each
pair of entries must have the same ``RunResult.comparable()`` payload:
every counter-derived number at full precision, without the wall-clock
extras. CI fills one directory with invariant-checked runs and the
other with unchecked runs of the same experiment, so a drive path that
the invariant wrapper does not take (the span and hit-run kernels) is
held to the checked path's results.

Prints one line per difference and a summary; exits 1 on any
difference or when the directories hold no entries.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from repro.sim.results import RunResult


def entries(cache_dir: Path) -> Dict[str, dict]:
    """Spec hash -> comparable result payload of every cache entry."""
    out = {}
    for path in sorted(cache_dir.glob("*/*.json")):
        payload = json.loads(path.read_text(encoding="utf-8"))
        out[path.stem] = RunResult.from_dict(payload["result"]).comparable()
    return out


def compare(first: Path, second: Path) -> Tuple[int, List[str]]:
    """How many spec hashes both directories hold, and one line per
    difference."""
    a, b = entries(first), entries(second)
    problems = [f"only in {first}: {key}" for key in sorted(a.keys() - b.keys())]
    problems += [
        f"only in {second}: {key}" for key in sorted(b.keys() - a.keys())
    ]
    problems += [
        f"results differ: {key}"
        for key in sorted(a.keys() & b.keys())
        if a[key] != b[key]
    ]
    if not a and not b:
        problems.append("no cache entries in either directory")
    return len(a.keys() & b.keys()), problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("first", type=Path)
    parser.add_argument("second", type=Path)
    args = parser.parse_args(argv)
    compared, problems = compare(args.first, args.second)
    for problem in problems:
        print(problem)
    print(
        f"{compared} entries compared: "
        + ("identical" if not problems else f"{len(problems)} difference(s)")
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
