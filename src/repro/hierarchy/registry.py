"""Name-based construction of multi-level schemes."""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.errors import UnknownPolicyError
from repro.hierarchy.base import MultiLevelScheme
from repro.hierarchy.eviction_based import EvictionBasedScheme
from repro.hierarchy.indlru import IndependentScheme
from repro.hierarchy.mq_scheme import ClientLRUServerMQ
from repro.hierarchy.oracle import AggregateLRUOracle
from repro.hierarchy.static_partition import ULCStaticPartitionScheme
from repro.hierarchy.ulc import ULCMultiScheme, ULCScheme
from repro.hierarchy.unilru import (
    INSERT_ADAPTIVE,
    INSERT_LRU,
    INSERT_MRU,
    UnifiedLRUMultiScheme,
    UnifiedLRUScheme,
)

SchemeFactory = Callable[..., MultiLevelScheme]

# Filled at import time only; treated as read-only afterwards.
_SINGLE: Dict[str, SchemeFactory] = {  # repro: noqa SIM001 -- import-time literal, never iterated on a result path
    "indlru": IndependentScheme,
    "unilru": UnifiedLRUScheme,
    "ulc": ULCScheme,
    "agglru": AggregateLRUOracle,
}

# Filled at import time only; treated as read-only afterwards.
_MULTI: Dict[str, SchemeFactory] = {  # repro: noqa SIM001 -- import-time literal, never iterated on a result path
    "indlru": IndependentScheme,
    "unilru": lambda caps, n, **kw: UnifiedLRUMultiScheme(
        caps, n, insertion=INSERT_MRU, **kw
    ),
    "unilru-lru": lambda caps, n, **kw: UnifiedLRUMultiScheme(
        caps, n, insertion=INSERT_LRU, **kw
    ),
    "unilru-adaptive": lambda caps, n, **kw: UnifiedLRUMultiScheme(
        caps, n, insertion=INSERT_ADAPTIVE, **kw
    ),
    "mq": ClientLRUServerMQ,
    "ulc": ULCMultiScheme,
    "ulc-static": ULCStaticPartitionScheme,
    "agglru": AggregateLRUOracle,
    "eviction-based": EvictionBasedScheme,
}
_SINGLE["eviction-based"] = EvictionBasedScheme


def available_schemes(multi_client: bool = False) -> List[str]:
    """Sorted scheme names for the given structure."""
    return sorted(_MULTI if multi_client else _SINGLE)


def registry_items(multi_client: bool = False) -> Dict[str, SchemeFactory]:
    """A copy of the registry mapping (conformance checks, docs)."""
    return dict(_MULTI if multi_client else _SINGLE)


def make_scheme(
    name: str,
    capacities: List[int],
    num_clients: int = 1,
    **kwargs: object,
) -> MultiLevelScheme:
    """Build a scheme by registry name.

    The multi-client registry is used whenever ``num_clients > 1``.
    """
    registry = _MULTI if num_clients > 1 else _SINGLE
    try:
        factory = registry[name.lower()]
    except KeyError:
        raise UnknownPolicyError(
            f"unknown scheme {name!r}; available: "
            f"{available_schemes(num_clients > 1)}"
        ) from None
    return factory(capacities, num_clients, **kwargs)
