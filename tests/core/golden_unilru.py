"""Event-stream fixture for the single-client uniLRU scheme.

``tests/data/golden_unilru_streams.json`` holds, for
:class:`~repro.hierarchy.unilru.UnifiedLRUScheme` at every hierarchy in
:data:`HIERARCHIES` on every trace below, the
:func:`tests.core.golden_core.stream_digest` of the full
:class:`AccessEvent` stream and a digest of the final ``global_order()``
(the aggregate LRU stack, MRU first). The traces are those of
:func:`tests.policies.golden_policies.traces` at the aggregate
capacity: the two :data:`~tests.core.golden_core.TRACES`, a loop one
block longer than the aggregate cache and a scan storm sized to it.
The fixture pins every hit level, ripple demotion and eviction, so that
the scheme can be rebuilt on another structure without changing its
behaviour; regenerate it only for an intended change of behaviour::

    PYTHONPATH=src python -m tests.core.golden_unilru \\
        > tests/data/golden_unilru_streams.json
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Tuple

from tests.core.golden_core import stream_digest
from tests.policies.golden_policies import traces

#: Level capacities, client first.
HIERARCHIES: Tuple[Tuple[int, ...], ...] = (
    (1,),
    (1, 1),
    (3, 1, 2),
    (5, 7, 2, 9),
    (64, 128, 256),
)


def hierarchy_key(capacities: Tuple[int, ...]) -> str:
    """Fixture key of a hierarchy, e.g. ``"3-1-2"``."""
    return "-".join(str(capacity) for capacity in capacities)


def hierarchy_digests(key: str) -> Dict[str, Dict[str, object]]:
    """Stream and final-order digests of one hierarchy on every trace."""
    from repro.hierarchy.unilru import UnifiedLRUScheme

    capacities = [int(part) for part in key.split("-")]
    digests = {}
    for name, blocks in traces(sum(capacities)):
        scheme = UnifiedLRUScheme(capacities)
        events = [scheme.access(0, block) for block in blocks]
        scheme.check_invariants()
        order = json.dumps(scheme.global_order()).encode("utf-8")
        digests[name] = {
            "stream": stream_digest(events),
            "global_order": hashlib.sha256(order).hexdigest(),
        }
    return digests


def collect() -> Dict[str, Dict[str, Dict[str, object]]]:
    """The whole fixture document."""
    return {
        hierarchy_key(capacities): hierarchy_digests(
            hierarchy_key(capacities)
        )
        for capacities in HIERARCHIES
    }


if __name__ == "__main__":
    print(json.dumps(collect(), indent=2, sort_keys=True))
