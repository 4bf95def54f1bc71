"""Shared machinery for the seed-vs-slab golden equivalence fixture.

This module is written to run UNCHANGED under both the pre-slab (seed)
engines and the slab/array engines that replaced them: the committed
fixture ``tests/data/golden_seed_core.json`` was produced by executing
:func:`collect_golden` in a checkout of the last pre-slab revision
(``e9abaac``), and ``tests/core/test_slab_equivalence.py`` re-executes
the same collection against the current engines and requires the output
to be identical — bit-identical :class:`AccessEvent` streams (via a
canonical-JSON digest) and identical :meth:`RunResult.comparable`
content hashes with invariant checking enabled.

Only public, version-stable APIs are used (engine constructors,
``access``, the scheme registry, ``run_specs``), so the module keeps
working as the implementations underneath evolve.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, List, Optional

#: Traces driven through every engine: (name, family, kwargs).
TRACES = (
    ("random", "random", dict(num_blocks=512, num_refs=3000, seed=7)),
    ("zipf", "zipf", dict(num_blocks=1024, num_refs=3000, seed=11)),
)

#: Single-client RunSpec scenarios hashed end-to-end.
RUN_SCENARIOS = (
    ("ulc", (100, 100, 100), 1),
    ("unilru", (100, 100, 100), 1),
    ("indlru", (100, 100, 100), 1),
)


def _event_payload(event) -> List[object]:
    """Canonical serialization of one access outcome (field by field).

    Attribute access keeps this valid for both the seed dataclass
    events and the NamedTuple events that replaced them; single-level
    policies return the simpler ``AccessResult`` (hit + evictions).
    """
    if isinstance(event, tuple) and not hasattr(event, "_fields"):
        result, victim = event  # (policies.base.AccessResult, victim)
        return [bool(result.hit), list(result.evicted), victim]
    return [
        event.block,
        event.client,
        event.hit_level,
        bool(event.served_from_temp),
        event.placed_level,
        [[d.block, d.src, d.dst] for d in event.demotions],
        list(event.evicted),
        event.control_messages,
    ]


def stream_digest(events: Iterable[object]) -> Dict[str, object]:
    """Count + sha256 of the canonical JSON of an AccessEvent stream."""
    payload = [_event_payload(event) for event in events]
    encoded = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return {
        "events": len(payload),
        "sha256": hashlib.sha256(encoded).hexdigest(),
    }


def _traces():
    from repro.workloads import random_trace, zipf_trace

    makers = {"random": random_trace, "zipf": zipf_trace}
    return [
        (name, makers[family](**kwargs)) for name, family, kwargs in TRACES
    ]


def collect_event_streams() -> Dict[str, Dict[str, object]]:
    """Digest of the full event stream of each engine on each trace."""
    from repro.core import ULCClient, ULCMultiSystem
    from repro.policies import make_policy

    streams: Dict[str, Dict[str, object]] = {}
    for name, trace in _traces():
        blocks = trace.blocks.tolist()

        engine = ULCClient([64, 128, 256])
        streams[f"ulc/{name}"] = stream_digest(
            [engine.access(block) for block in blocks]
        )

        for policy_name, capacity in (("lru", 128), ("mq", 128)):
            policy = make_policy(policy_name, capacity)
            outcomes = []
            for block in blocks:
                result = policy.access(block)
                # The eviction candidate after every step pins the whole
                # recency order's evolution, not just hits/evictions.
                outcomes.append((result, policy.victim()))
            streams[f"{policy_name}/{name}"] = stream_digest(outcomes)

        system = ULCMultiSystem(4, client_capacity=32, server_capacity=128)
        streams[f"multi/{name}"] = stream_digest(
            [system.access(i % 4, block) for i, block in enumerate(blocks)]
        )
    return streams


def result_hash(result) -> str:
    """sha256 of the canonical JSON of ``RunResult.comparable()``.

    Normalised to the seed-era result schema: the fixture predates the
    explicit ``t_message_ms`` field, whose value the seed engines folded
    into ``t_demotion_ms``. Folding it back (same two float operands,
    same addition) reproduces the seed payload bit-for-bit, so the hash
    keeps pinning *engine* behaviour across the accounting-schema
    extension.
    """
    payload = result.comparable()
    if "t_message_ms" in payload:
        payload["t_demotion_ms"] += payload.pop("t_message_ms")
    encoded = json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


def collect_run_hashes(
    check_invariants: Optional[int] = 500,
    batch_size: Optional[int] = None,
) -> Dict[str, str]:
    """Content hash of each scenario's RunResult.

    The fixture's hashes come from checked runs (invariants validated
    every ``check_invariants`` references). ``check_invariants=None``
    runs the bare schemes, as users do, so that the drive reaches their
    span and hit-run kernels; ``batch_size`` selects the batched drive.
    """
    from repro.runner import CostSpec, RunSpec, WorkloadSpec, run_specs
    from repro.sim import paper_three_level, paper_two_level

    workload = WorkloadSpec(
        "synthetic", "zipf", {"num_blocks": 2048, "num_refs": 6000, "seed": 3}
    )
    costs = CostSpec.from_model(paper_three_level())
    specs = [
        RunSpec(
            scheme=scheme,
            capacities=capacities,
            workload=workload,
            costs=costs,
            num_clients=num_clients,
        )
        for scheme, capacities, num_clients in RUN_SCENARIOS
    ]
    # Multi-client end-to-end: the seven-client httpd composition through
    # the ULC client/server pair.
    specs.append(
        RunSpec(
            scheme="ulc",
            capacities=(32, 128),
            workload=WorkloadSpec(
                "multi", "httpd", {"scale": 0.05, "num_refs": 4000}
            ),
            costs=CostSpec.from_model(paper_two_level()),
            num_clients=7,
        )
    )
    # batch_size is passed only when set, so the collection still runs
    # unchanged on engines whose run_specs predates the option.
    options = {} if batch_size is None else {"batch_size": batch_size}
    results = run_specs(specs, check_invariants=check_invariants, **options)
    return {
        f"{spec.scheme}{list(spec.capacities)}": result_hash(result)
        for spec, result in zip(specs, results)
    }


def collect_golden() -> Dict[str, object]:
    """The full golden document (what the committed fixture holds)."""
    return {
        "event_streams": collect_event_streams(),
        "run_hashes": collect_run_hashes(),
    }
