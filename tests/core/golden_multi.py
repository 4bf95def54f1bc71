"""Event-stream fixture for the multi-client ULC engine.

``tests/data/golden_multi_streams.json`` holds the
:func:`tests.core.golden_core.stream_digest` of the full
:class:`AccessEvent` stream of every scenario below on every trace: the
paper's two-level system (one shared server) in each notice mode, and
chains of two and three shared tiers, at cache sizes that fit a fair
share of the large traces and at a few blocks per level, where notices,
stale views and tier-to-tier demotions of the same block meet within a
handful of references. The fixture pins the engine's
behaviour bit for bit; regenerate it only for an intended change of
behaviour::

    PYTHONPATH=src python -m tests.core.golden_multi \\
        > tests/data/golden_multi_streams.json
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from tests.core.golden_core import TRACES, stream_digest

#: Round-robin clients over the single-stream ``TRACES``.
NUM_CLIENTS = 4

#: (name, client capacity, shared tier capacities, system options).
SCENARIOS: Tuple[Tuple[str, int, Tuple[int, ...], Dict[str, object]], ...] = (
    ("2/piggyback/t0", 16, (64,), dict(templru_capacity=0)),
    ("2/piggyback/t16", 16, (64,), dict(templru_capacity=16)),
    ("2/immediate/t0", 16, (64,),
     dict(templru_capacity=0, notify="immediate")),
    ("2/immediate/t16", 16, (64,),
     dict(templru_capacity=16, notify="immediate")),
    ("2/loss/t0", 16, (64,),
     dict(templru_capacity=0, notice_loss_rate=0.3, notice_loss_seed=5)),
    ("2/loss/t16", 16, (64,),
     dict(templru_capacity=16, notice_loss_rate=0.3, notice_loss_seed=5)),
    ("2/immediate-loss/t16", 16, (64,),
     dict(templru_capacity=16, notify="immediate", notice_loss_rate=0.3,
          notice_loss_seed=5)),
    ("2/max-metadata/t0", 16, (64,),
     dict(templru_capacity=0, max_metadata=96)),
    ("2/max-metadata/t16", 16, (64,),
     dict(templru_capacity=16, max_metadata=96)),
    ("3/piggyback/t0", 16, (32, 64), dict(templru_capacity=0)),
    ("3/piggyback/t16", 16, (32, 64), dict(templru_capacity=16)),
    ("3/max-metadata/t16", 16, (32, 64),
     dict(templru_capacity=16, max_metadata=128)),
    ("4/piggyback/t0", 8, (16, 32, 64), dict(templru_capacity=0)),
    ("4/piggyback/t16", 8, (16, 32, 64), dict(templru_capacity=16)),
    ("2/tiny/immediate-loss/t0", 2, (5,),
     dict(templru_capacity=0, notify="immediate", notice_loss_rate=0.3,
          notice_loss_seed=5)),
    ("3/tiny/piggyback/t0", 3, (2, 2), dict(templru_capacity=0)),
    ("3/tiny/piggyback/t16", 2, (2, 4), dict(templru_capacity=16)),
    ("4/tiny/piggyback/t0", 1, (2, 1, 4), dict(templru_capacity=0)),
)

#: Few-block traces for the tiny scenarios: (name, family, kwargs).
SMALL_TRACES = (
    ("small-random", "random", dict(num_blocks=32, num_refs=3000, seed=13)),
    ("small-zipf", "zipf", dict(num_blocks=48, num_refs=3000, seed=17)),
)


def build(num_clients: int, scenario: str):
    """A fresh system for one scenario."""
    from repro.core import ULCMultiSystem

    _, client_capacity, tiers, options = next(
        entry for entry in SCENARIOS if entry[0] == scenario
    )
    server_capacity = tiers[0] if len(tiers) == 1 else list(tiers)
    return ULCMultiSystem(
        num_clients, client_capacity, server_capacity, **options
    )


def traces() -> List[Tuple[str, int, List[int], List[int]]]:
    """(name, number of clients, clients, blocks) of every trace."""
    from repro.workloads import httpd_like, random_trace, zipf_trace

    makers = {"random": random_trace, "zipf": zipf_trace}
    out = []
    for name, family, kwargs in TRACES + SMALL_TRACES:
        blocks = makers[family](**kwargs).blocks.tolist()
        clients = [index % NUM_CLIENTS for index in range(len(blocks))]
        out.append((name, NUM_CLIENTS, clients, blocks))
    httpd = httpd_like(scale=1 / 256, num_refs=4000, seed=3)
    out.append((
        "httpd", httpd.num_clients, httpd.clients.tolist(),
        httpd.blocks.tolist(),
    ))
    return out


def scenario_digests(scenario: str) -> Dict[str, Dict[str, object]]:
    """Stream digest of one scenario on every trace, keyed by trace."""
    digests = {}
    for name, num_clients, clients, blocks in traces():
        system = build(num_clients, scenario)
        digests[name] = stream_digest(
            [system.access(c, b) for c, b in zip(clients, blocks)]
        )
        system.check_invariants()
    return digests


def collect() -> Dict[str, Dict[str, Dict[str, object]]]:
    """The whole fixture document."""
    return {name: scenario_digests(name) for name, *_ in SCENARIOS}


if __name__ == "__main__":
    print(json.dumps(collect(), indent=2, sort_keys=True))
