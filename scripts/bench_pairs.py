"""Alternating benchmark pairs: a base revision against the working tree.

Usage (from the repository root)::

    python scripts/bench_pairs.py --base HEAD~1 --workload stream-single \
        [--pairs 10] [--seconds 20] [--seed 1]

The base revision is exported with ``git archive`` into a temporary
directory. Each pair runs the benchmark command of ``BENCHMARK.json``
(``perfbench/run.py``) with ``--trace 0`` once in that export and once
in the working tree; the base runs first in odd pairs and second in
even pairs. The script stops at the first run that reports
``correct: false`` or a failed operation.

It prints every pair, then for each end-to-end metric of
``BENCHMARK.json`` both sides' medians and quartiles, how many pairs the
change won (ties count for neither side), and two verdicts:

- the gain rule: the change wins at least nine tenths of the pairs and
  its median is better than the base median by more than the base
  interquartile range;
- the bound: the change's median is no worse than the base median by
  more than the metric's ``bound``. Where either side's interquartile
  range is wider than the bound, the verdict is "unresolved" unless
  every change run beats every base run.

It reads ``BENCHMARK.json`` and ``perfbench/`` and writes neither.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile) of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(
    base: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: float,
) -> Dict[str, object]:
    """Compare paired runs of one metric (``base[i]`` with ``change[i]``).

    ``better`` is ``"lower"`` or ``"higher"``; ``bound`` is the largest
    allowed relative worsening of the median. Returns the quartiles of
    both sides, the change's win count, its relative median change and
    the two verdicts (``gain``: bool, ``bound``: ``"held"``,
    ``"exceeded"`` or ``"unresolved"``).
    """
    if len(base) != len(change) or not base:
        raise ValueError("need the same non-zero number of runs per side")
    # ``sign * (base - change)`` > 0 means the change is better.
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for b, c in zip(base, change) if sign * (b - c) > 0)
    b1, b2, b3 = quartiles(base)
    c1, c2, c3 = quartiles(change)
    base_iqr = b3 - b1
    gain = sign * (b2 - c2)
    relative = (c2 - b2) / b2 if b2 else 0.0
    worsening = -gain / b2 if b2 else 0.0
    spread = max(base_iqr, c3 - c1) / b2 if b2 else 0.0
    if sign > 0:
        separated = max(change) < min(base)
    else:
        separated = min(change) > max(base)
    if spread > bound and not separated:
        bound_verdict = "unresolved"
    elif worsening > bound:
        bound_verdict = "exceeded"
    else:
        bound_verdict = "held"
    return {
        "base": (b1, b2, b3),
        "change": (c1, c2, c3),
        "wins": wins,
        "pairs": len(base),
        "relative": relative,
        "gain": wins >= 0.9 * len(base) and gain > base_iqr,
        "bound": bound_verdict,
    }


def export(rev: str, into: Path) -> Path:
    """Write the tree of ``rev`` into ``into``; return its root."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev],
        cwd=ROOT, check=True, stdout=subprocess.PIPE,
    ).stdout
    # The "data" filter (Python 3.11.4+) refuses links out of ``into``.
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, **safe)  # type: ignore[arg-type]
    return into


def run_once(
    tree: Path, command: List[str], workload: str, seed: int, seconds: float
) -> Dict[str, object]:
    """One untraced benchmark run in ``tree``; returns its JSON line."""
    completed = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True, check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"no output from the run in {tree}")
    return json.loads(lines[-1])


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=1)
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["end_to_end"]
    runs: Dict[str, Dict[str, List[float]]] = {"base": {}, "change": {}}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as workdir:
        trees = {"base": export(args.base, Path(workdir)), "change": ROOT}
        for pair in range(1, args.pairs + 1):
            order = ("base", "change") if pair % 2 else ("change", "base")
            line = []
            for side in order:
                result = run_once(
                    trees[side], list(spec["command"]), args.workload,
                    args.seed, args.seconds,
                )
                if not result["correct"] or result["failed"]:
                    print(f"pair {pair}: the {side} run failed its checks: "
                          f"{json.dumps(result)}")
                    return 1
                for metric in metrics:
                    name = metric["name"]
                    runs[side].setdefault(name, []).append(
                        result["metrics"][name]["value"]
                    )
            for metric in metrics:
                name = metric["name"]
                line.append(f"{name} {runs['base'][name][-1]:.4g}/"
                            f"{runs['change'][name][-1]:.4g}")
            print(f"pair {pair} ({order[0]} first), base/change: "
                  + ", ".join(line), flush=True)
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of "
          f"{args.seconds:g}-s runs, base {args.base} vs the working tree")
    for metric in metrics:
        name = metric["name"]
        result = verdict(
            runs["base"][name], runs["change"][name],
            metric["better"], metric["bound"],
        )
        b1, b2, b3 = result["base"]  # type: ignore[misc]
        c1, c2, c3 = result["change"]  # type: ignore[misc]
        print(
            f"  {name} ({metric['unit']}, {metric['better']} is better): "
            f"base {b2:.4g} (IQR {b1:.4g}-{b3:.4g}), "
            f"change {c2:.4g} (IQR {c1:.4g}-{c3:.4g}), "
            f"{result['relative']:+.1%}, change wins "
            f"{result['wins']}/{result['pairs']}; gain rule "
            f"{'met' if result['gain'] else 'not met'}; bound "
            f"{metric['bound']:.0%} {result['bound']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
