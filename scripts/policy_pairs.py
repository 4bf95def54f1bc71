"""Alternating policy-kernel pairs: a base revision against the working tree.

Usage (from the repository root)::

    python scripts/policy_pairs.py --base HEAD~1 --policies s3fifo mq \
        [--pairs 10] [--capacity 1024] [--refs 200000]

The base revision is exported with ``git archive`` into a temporary
directory. Each pair runs one subprocess against that export and one
against the working tree; the base runs first in odd pairs and second
in even pairs. A subprocess times ``make_policy(name, capacity).access``
over a zipf trace (8192 blocks, ``--refs`` references, seed 3) for
each policy in turn, at the reference speed of
``perfbench.speed.at_reference_speed`` (the working tree's copy, so
both sides share one clock).

It prints every pair, then for each policy both sides' medians and
quartiles, the relative change of the median, how many pairs the change
won (ties count for neither side) and the gain rule of
``scripts/bench_pairs.py``. It writes nothing outside its temporary
directory.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

from bench_pairs import export, verdict  # noqa: E402

#: The timed trace: zipf over this many blocks, at this seed.
NUM_BLOCKS = 8192
SEED = 3


def time_policies(
    policies: List[str], capacity: int, refs: int
) -> Dict[str, float]:
    """Seconds at the reference speed of one ``access`` pass per policy
    (run inside a child process whose ``repro`` is the tree under test)."""
    sys.path.insert(0, str(ROOT))
    from perfbench.speed import at_reference_speed
    from repro.policies import make_policy
    from repro.workloads import zipf_trace

    blocks = zipf_trace(NUM_BLOCKS, refs, seed=SEED).blocks.tolist()

    def drive(name: str) -> None:
        access = make_policy(name, capacity).access
        for block in blocks:
            access(block)

    return {
        name: at_reference_speed(functools.partial(drive, name))[0]
        for name in policies
    }


def run_side(tree: Path, args: argparse.Namespace) -> Dict[str, float]:
    """One child process timing every policy against ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child",
         "--policies", *args.policies,
         "--capacity", str(args.capacity), "--refs", str(args.refs)],
        cwd=tree, env=env, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="git revision")
    parser.add_argument("--policies", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--capacity", type=int, default=1024)
    parser.add_argument("--refs", type=int, default=200_000)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.child and args.base is None:
        parser.error("--base is required")
    return args


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if args.child:
        print(json.dumps(time_policies(args.policies, args.capacity, args.refs)))
        return 0
    runs: Dict[str, Dict[str, List[float]]] = {"base": {}, "change": {}}
    with tempfile.TemporaryDirectory(prefix="policy-pairs-") as workdir:
        trees = {"base": export(args.base, Path(workdir)), "change": ROOT}
        for pair in range(1, args.pairs + 1):
            order = ("base", "change") if pair % 2 else ("change", "base")
            for side in order:
                for name, seconds in run_side(trees[side], args).items():
                    runs[side].setdefault(name, []).append(seconds)
            print(f"pair {pair} ({order[0]} first), base/change: " + ", ".join(
                f"{name} {runs['base'][name][-1]:.4g}/"
                f"{runs['change'][name][-1]:.4g}"
                for name in args.policies
            ), flush=True)
    print(f"{args.pairs} pairs, capacity {args.capacity}, {args.refs} zipf "
          f"references, base {args.base} vs the working tree (s at the "
          f"reference speed, lower is better)")
    for name in args.policies:
        result = verdict(runs["base"][name], runs["change"][name], "lower", 0.0)
        b1, b2, b3 = result["base"]  # type: ignore[misc]
        c1, c2, c3 = result["change"]  # type: ignore[misc]
        print(
            f"  {name}: base {b2:.4g} (IQR {b1:.4g}-{b3:.4g}), "
            f"change {c2:.4g} (IQR {c1:.4g}-{c3:.4g}), "
            f"{result['relative']:+.1%}, change wins "
            f"{result['wins']}/{result['pairs']}; gain rule "
            f"{'met' if result['gain'] else 'not met'}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
