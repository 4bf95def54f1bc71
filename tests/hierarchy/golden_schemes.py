"""Event-stream fixture for the schemes built from LRU-family policies.

``tests/data/golden_scheme_streams.json`` holds the
:func:`tests.core.golden_core.stream_digest` of the full
:class:`AccessEvent` stream of every scenario below on every trace:
indLRU at one to three levels, client-LRU + server-MQ, Wong & Wilkes'
multi-client DEMOTE in its three insertion modes (the adaptive one also
with a window short enough to roll many times per trace),
eviction-based placement, the aggregate-LRU oracle and cooperative
caching, each with one client and with :data:`NUM_CLIENTS` round-robin
clients where the scheme takes them. The traces are those of
:func:`tests.policies.golden_policies.traces` at the scenario's summed
capacities: the two :data:`~tests.core.golden_core.TRACES`, a loop one
block longer than that and a scan storm sized to it. Every
hit level, demotion and reported eviction is pinned, so the policies
underneath can be rebuilt without changing the schemes' behaviour;
regenerate the fixture only for an intended change of behaviour::

    PYTHONPATH=src python -m tests.hierarchy.golden_schemes \\
        > tests/data/golden_scheme_streams.json
"""

from __future__ import annotations

import json
from typing import Dict, Tuple

from tests.core.golden_core import stream_digest
from tests.policies.golden_policies import traces

#: Clients of the multi-client scenarios, issuing references round-robin.
NUM_CLIENTS = 4

#: (scheme, capacities, clients, constructor keyword arguments).
SCENARIOS: Tuple[Tuple[str, Tuple[int, ...], int, Dict[str, object]], ...] = (
    ("indlru", (3,), 1, {}),
    ("indlru", (64,), 1, {}),
    ("indlru", (3, 5), 1, {}),
    ("indlru", (64, 128), 1, {}),
    ("indlru", (2, 3, 5), 1, {}),
    ("indlru", (32, 64, 128), 1, {}),
    ("indlru", (3,), NUM_CLIENTS, {}),
    ("indlru", (16, 64), NUM_CLIENTS, {}),
    ("indlru", (2, 3, 5), NUM_CLIENTS, {}),
    ("indlru", (16, 32, 64), NUM_CLIENTS, {}),
    ("mq", (8, 32), 1, {}),
    ("mq", (8, 32), NUM_CLIENTS, {}),
    ("mq", (32, 128), NUM_CLIENTS, {}),
    ("mq", (8, 32), NUM_CLIENTS, {"num_queues": 4, "life_time": 16}),
    ("unilru", (3, 5), NUM_CLIENTS, {}),
    ("unilru", (16, 64), NUM_CLIENTS, {}),
    ("unilru-lru", (3, 5), NUM_CLIENTS, {}),
    ("unilru-lru", (16, 64), NUM_CLIENTS, {}),
    ("unilru-adaptive", (16, 64), NUM_CLIENTS, {}),
    ("unilru-adaptive", (3, 5), NUM_CLIENTS, {"adaptive_window": 40}),
    ("unilru-adaptive", (16, 64), NUM_CLIENTS, {"adaptive_window": 40}),
    ("eviction-based", (8, 32), 1, {}),
    ("eviction-based", (8, 32), NUM_CLIENTS, {}),
    ("eviction-based", (3, 5), NUM_CLIENTS, {"reload_delay": 0}),
    ("agglru", (3, 5), 1, {}),
    ("agglru", (64, 128), NUM_CLIENTS, {}),
    ("cooperative", (8, 32), NUM_CLIENTS, {}),
    ("cooperative", (3, 5), NUM_CLIENTS, {"n_chance": 2, "seed": 3}),
    ("cooperative", (16, 64), NUM_CLIENTS, {"n_chance": 1}),
)


def scenario_key(
    scheme: str,
    capacities: Tuple[int, ...],
    num_clients: int,
    kwargs: Dict[str, object],
) -> str:
    """Fixture key, e.g. ``"mq/8-32/c4(num_queues=4,life_time=16)"``."""
    sizes = "-".join(str(capacity) for capacity in capacities)
    key = f"{scheme}/{sizes}/c{num_clients}"
    if kwargs:
        key += "(" + ",".join(f"{k}={v}" for k, v in kwargs.items()) + ")"
    return key


#: Fixture key -> scenario.
CASES = {scenario_key(*scenario): scenario for scenario in SCENARIOS}


def build(case: str):
    """A fresh scheme for one :data:`CASES` entry."""
    from repro.hierarchy.cooperative import CooperativeScheme
    from repro.hierarchy.eviction_based import EvictionBasedScheme
    from repro.hierarchy.indlru import IndependentScheme
    from repro.hierarchy.mq_scheme import ClientLRUServerMQ
    from repro.hierarchy.oracle import AggregateLRUOracle
    from repro.hierarchy.unilru import UnifiedLRUMultiScheme

    scheme, capacities, num_clients, kwargs = CASES[case]
    if scheme.startswith("unilru"):
        insertion = scheme.partition("-")[2] or "mru"
        return UnifiedLRUMultiScheme(
            list(capacities), num_clients, insertion=insertion, **kwargs
        )
    factory = {
        "indlru": IndependentScheme,
        "mq": ClientLRUServerMQ,
        "eviction-based": EvictionBasedScheme,
        "agglru": AggregateLRUOracle,
        "cooperative": CooperativeScheme,
    }[scheme]
    return factory(list(capacities), num_clients, **kwargs)


def case_digests(case: str) -> Dict[str, Dict[str, object]]:
    """Stream digest of one scenario on every trace, keyed by trace."""
    _, capacities, num_clients, _ = CASES[case]
    digests = {}
    for name, blocks in traces(sum(capacities)):
        scheme = build(case)
        digests[name] = stream_digest(
            [
                scheme.access(index % num_clients, block)
                for index, block in enumerate(blocks)
            ]
        )
        scheme.check_invariants()
    return digests


def collect() -> Dict[str, Dict[str, Dict[str, object]]]:
    """The whole fixture document."""
    return {case: case_digests(case) for case in CASES}


if __name__ == "__main__":
    print(json.dumps(collect(), indent=2, sort_keys=True))
