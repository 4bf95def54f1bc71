"""Event-stream fixture for the single-level replacement policies.

``tests/data/golden_policy_streams.json`` holds, for LRU, MRU, FIFO,
CLOCK, SIEVE, ARC, 2Q, LFU, LIRS, S3-FIFO, W-TinyLFU, LeCaR and MQ at
capacities 1, 2, 3, 8 and 128 on every trace below, the
:func:`tests.core.golden_core.stream_digest` of the
``(AccessResult, victim())`` stream and a digest of the final
``list(resident())``. The last four also run with one non-default
parameter set each (:data:`PARAMETERS`), which reaches branches their
defaults skip. Every :data:`REMOVE_EVERY` references one
resident block, picked by a seeded generator from the sorted resident
set, is invalidated with ``remove``; the victim recorded for that step
is read after the removal. The traces are the two
:data:`~tests.core.golden_core.TRACES`, a loop one block longer than
the cache and a scan storm that floods a small hot set with one-shot
blocks. The fixture pins each policy's recency, frequency and ghost
bookkeeping bit for bit; regenerate it only for an intended change of
behaviour::

    PYTHONPATH=src python -m tests.policies.golden_policies \\
        > tests/data/golden_policy_streams.json
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List, Tuple

from tests.core.golden_core import TRACES, stream_digest

POLICIES = (
    "lru", "mru", "fifo", "clock", "sieve",
    "arc", "2q", "lfu", "lirs", "s3fifo", "wtinylfu", "lecar", "mq",
)

#: One non-default parameter set per policy: MQ without a ghost queue
#: and with frequent ``Adjust`` demotions, a large S3-FIFO small queue
#: over a short ghost queue, a wide W-TinyLFU window over an even main
#: split, and a fast-learning LeCaR on another seed.
PARAMETERS: Dict[str, Dict[str, object]] = {
    "mq": {"num_queues": 2, "life_time": 3, "ghost_capacity": 0},
    "s3fifo": {"small_fraction": 0.5, "ghost_factor": 0.5},
    "wtinylfu": {"window_fraction": 0.3, "protected_fraction": 0.5},
    "lecar": {"seed": 5, "learning_rate": 2.0},
}
CAPACITIES = (1, 2, 3, 8, 128)

#: References in each synthetic (loop and scan-storm) trace.
NUM_REFS = 3000

#: One seeded ``remove`` of a resident block every this many references.
REMOVE_EVERY = 7
REMOVE_SEED = 23

#: First block id of the scan storm's one-shot blocks.
_SCAN_BASE = 1_000_000


def loop_trace(capacity: int) -> List[int]:
    """A cyclic scan over ``capacity + 1`` blocks: LRU's worst case."""
    return [index % (capacity + 1) for index in range(NUM_REFS)]


def scan_storm_trace(capacity: int) -> List[int]:
    """Bursts of hot-set references broken by scans of fresh blocks.

    The hot set holds half the cache (at least one block); each burst
    draws ``2 * hot`` references from it, and each scan walks
    ``2 * capacity + 1`` blocks that are never referenced again.
    """
    rng = random.Random(capacity)
    hot = max(1, capacity // 2)
    blocks: List[int] = []
    fresh = _SCAN_BASE
    while len(blocks) < NUM_REFS:
        blocks.extend(rng.randrange(hot) for _ in range(2 * hot))
        blocks.extend(range(fresh, fresh + 2 * capacity + 1))
        fresh += 2 * capacity + 1
    return blocks[:NUM_REFS]


def traces(capacity: int) -> List[Tuple[str, List[int]]]:
    """(name, blocks) of every trace driven at ``capacity``."""
    from repro.workloads import random_trace, zipf_trace

    makers = {"random": random_trace, "zipf": zipf_trace}
    out = [
        (name, makers[family](**kwargs).blocks.tolist())
        for name, family, kwargs in TRACES
    ]
    out.append(("loop", loop_trace(capacity)))
    out.append(("scan-storm", scan_storm_trace(capacity)))
    return out


def case_key(policy_name: str, kwargs: Dict[str, object]) -> str:
    """Fixture key of a policy under ``kwargs``: its name, then any
    parameters as ``name(key=value,...)``."""
    if not kwargs:
        return policy_name
    params = ",".join(f"{key}={value}" for key, value in kwargs.items())
    return f"{policy_name}({params})"


#: Fixture key -> (policy name, constructor keyword arguments).
CASES: Dict[str, Tuple[str, Dict[str, object]]] = {
    name: (name, {}) for name in POLICIES
}
CASES.update(
    (case_key(name, kwargs), (name, kwargs))
    for name, kwargs in PARAMETERS.items()
)


def case_digest(
    policy_name: str,
    capacity: int,
    blocks: List[int],
    kwargs: Dict[str, object],
):
    """Stream and final-residency digests of one case."""
    from repro.policies import make_policy

    policy = make_policy(policy_name, capacity, **kwargs)
    rng = random.Random(REMOVE_SEED)
    outcomes = []
    for step, block in enumerate(blocks, start=1):
        result = policy.access(block)
        if step % REMOVE_EVERY == 0:
            policy.remove(rng.choice(sorted(policy.resident())))
            policy.check_invariants()
        outcomes.append((result, policy.victim()))
    policy.check_invariants()
    resident = json.dumps(list(policy.resident())).encode("utf-8")
    return {
        "stream": stream_digest(outcomes),
        "resident": hashlib.sha256(resident).hexdigest(),
    }


def policy_digests(case: str) -> Dict[str, Dict[str, object]]:
    """Digests of one :data:`CASES` entry at every capacity on every
    trace."""
    policy_name, kwargs = CASES[case]
    return {
        f"{capacity}/{name}": case_digest(
            policy_name, capacity, blocks, kwargs
        )
        for capacity in CAPACITIES
        for name, blocks in traces(capacity)
    }


def collect() -> Dict[str, Dict[str, Dict[str, object]]]:
    """The whole fixture document."""
    return {case: policy_digests(case) for case in CASES}


if __name__ == "__main__":
    print(json.dumps(collect(), indent=2, sort_keys=True))
