"""The ULC protocol — the paper's primary contribution.

- :mod:`repro.core.stack` — the uniLRUstack with yardsticks.
- :mod:`repro.core.protocol` — the single-client, n-level ULC engine.
- :mod:`repro.core.multi` — the multi-client protocol (shared gLRU
  server, owner tags, delayed eviction notices), over one shared
  server or a chain of shared tiers.
- :mod:`repro.core.measures` — the ND / R / NLD / LLD-R locality
  measures from Section 2.
- :mod:`repro.core.events` — the protocol event types consumed by the
  simulator.
"""

from repro.core.events import AccessEvent, Demotion
from repro.core.measures import (
    NO_VALUE,
    lld_r,
    next_reference_times,
    nld_values,
    recencies_at_access,
)
from repro.core.multi import (
    NOTIFY_IMMEDIATE,
    NOTIFY_PIGGYBACK,
    ULCMultiClient,
    ULCMultiSystem,
    ULCServer,
)
from repro.core.protocol import ULCClient
from repro.core.stack import StackNode, UniLRUStack

__all__ = [
    "AccessEvent",
    "Demotion",
    "ULCClient",
    "ULCMultiClient",
    "ULCMultiSystem",
    "ULCServer",
    "NOTIFY_PIGGYBACK",
    "NOTIFY_IMMEDIATE",
    "UniLRUStack",
    "StackNode",
    "NO_VALUE",
    "recencies_at_access",
    "next_reference_times",
    "nld_values",
    "lld_r",
]
