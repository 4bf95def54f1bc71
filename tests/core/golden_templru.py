"""Event-stream fixture for the client tempLRU of both ULC engines.

``tests/data/golden_templru_streams.json`` holds the
:func:`tests.core.golden_core.stream_digest` of the full
:class:`AccessEvent` stream of every scenario below on every trace, plus
the stream's count of references served from the tempLRU. The other
engine fixtures run with ``templru_capacity=16`` only, where a
pass-through block rarely returns before it ages out; here the cache
levels hold 1-3 blocks over traces of 8-64 blocks, and a scan
re-references each block at distances 1-4, so blocks enter, hit, leave
and are evicted from a tempLRU of 1, 2, 3 and 16 blocks within a few
references. The scenarios cover the single-client engine and the
multi-client system with piggybacked and immediate notices over one and
two shared tiers. Regenerate the fixture only for an intended change of
behaviour::

    PYTHONPATH=src python -m tests.core.golden_templru \\
        > tests/data/golden_templru_streams.json
"""

from __future__ import annotations

import json
import random
from typing import Dict, List, Tuple

from tests.core.golden_core import stream_digest

#: tempLRU sizes every scenario runs at.
TEMPLRU_CAPACITIES = (1, 2, 3, 16)

#: Single-client scenarios: (name, level capacities, client first).
SINGLE: Tuple[Tuple[str, Tuple[int, ...]], ...] = (
    ("ulc/1", (1,)),
    ("ulc/2-3", (2, 3)),
    ("ulc/3-1-2", (3, 1, 2)),
)

#: Multi-client scenarios: (name, client capacity, shared tier
#: capacities, notice mode).
MULTI: Tuple[Tuple[str, int, Tuple[int, ...], str], ...] = (
    ("multi/1-tier/piggyback", 2, (3,), "piggyback"),
    ("multi/1-tier/immediate", 1, (3,), "immediate"),
    ("multi/2-tier/piggyback", 2, (1, 3), "piggyback"),
    ("multi/2-tier/immediate", 3, (2, 2), "immediate"),
)

#: Clients of the multi-client scenarios. References come in bursts of
#: :data:`BURST` per client, so a scan re-reference at distance 1-4
#: usually stays with the client that made the first reference.
NUM_CLIENTS = 2
BURST = 7

#: References in every trace.
NUM_REFS = 2000


def scan_trace() -> List[int]:
    """A scan of fresh blocks, each re-referenced at distance 1-4.

    After each new block the scan re-references the block ``d`` new
    blocks back, with ``d`` cycling through 1-4 — just long enough for
    a small tempLRU to keep it, or to have evicted it. Block ids wrap at
    64, so old blocks come back as cold re-references.
    """
    blocks: List[int] = []
    fresh = 0
    while len(blocks) < NUM_REFS:
        blocks.append(fresh % 64)
        distance = 1 + fresh % 4
        blocks.append((fresh - distance) % 64)
        fresh += 1
    return blocks[:NUM_REFS]


def random_trace(num_blocks: int, seed: int) -> List[int]:
    """Uniform references over ``num_blocks`` blocks."""
    rng = random.Random(seed)
    return [rng.randrange(num_blocks) for _ in range(NUM_REFS)]


def traces() -> List[Tuple[str, List[int]]]:
    """(name, blocks) of every trace."""
    return [
        ("random-8", random_trace(8, 31)),
        ("random-24", random_trace(24, 37)),
        ("random-64", random_trace(64, 41)),
        ("scan", scan_trace()),
    ]


def clients_for(blocks: List[int]) -> List[int]:
    """The multi-client issuer of each reference: bursts of
    :data:`BURST` per client, round robin."""
    return [(index // BURST) % NUM_CLIENTS for index in range(len(blocks))]


def scenario_names() -> List[str]:
    """Every scenario, each at every tempLRU size."""
    names = [name for name, _ in SINGLE] + [entry[0] for entry in MULTI]
    return [
        f"{name}/t{capacity}"
        for name in names
        for capacity in TEMPLRU_CAPACITIES
    ]


def _digest(events: List[object]) -> Dict[str, object]:
    digest = stream_digest(events)
    digest["temp_hits"] = sum(
        1 for event in events if event.served_from_temp  # type: ignore[attr-defined]
    )
    return digest


def scenario_digests(scenario: str) -> Dict[str, Dict[str, object]]:
    """Stream digest of one scenario on every trace, keyed by trace."""
    from repro.core import ULCClient, ULCMultiSystem

    base, _, temp_tag = scenario.rpartition("/t")
    templru_capacity = int(temp_tag)
    single = dict(SINGLE)
    multi = {name: options for name, *options in MULTI}
    digests = {}
    for name, blocks in traces():
        if base in single:
            engine = ULCClient(
                list(single[base]), templru_capacity=templru_capacity
            )
            events = [engine.access(block) for block in blocks]
            engine.check_invariants()
        else:
            client_capacity, tiers, notify = multi[base]
            system = ULCMultiSystem(
                NUM_CLIENTS,
                client_capacity,
                tiers[0] if len(tiers) == 1 else list(tiers),
                templru_capacity=templru_capacity,
                notify=notify,
            )
            events = [
                system.access(client, block)
                for client, block in zip(clients_for(blocks), blocks)
            ]
            system.check_invariants()
        digests[name] = _digest(events)
    return digests


def collect() -> Dict[str, Dict[str, Dict[str, object]]]:
    """The whole fixture document."""
    return {name: scenario_digests(name) for name in scenario_names()}


if __name__ == "__main__":
    print(json.dumps(collect(), indent=2, sort_keys=True))
