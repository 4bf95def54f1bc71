"""Multi-level caching schemes behind one interface.

Every scheme the paper evaluates — independent LRU, unified LRU
(single-client and the multi-client DEMOTE variants), client-LRU over
server-MQ, ULC, and the aggregate-size oracles — implements
:class:`repro.hierarchy.base.MultiLevelScheme`.
"""

from repro.hierarchy.base import MultiLevelScheme
from repro.hierarchy.cooperative import CooperativeScheme, cooperative_costs
from repro.hierarchy.eviction_based import EvictionBasedScheme
from repro.hierarchy.indlru import IndependentScheme
from repro.hierarchy.mq_scheme import ClientLRUServerMQ
from repro.hierarchy.oracle import AggregateLRUOracle, AggregateOPTOracle
from repro.hierarchy.registry import available_schemes, make_scheme
from repro.hierarchy.static_partition import ULCStaticPartitionScheme
from repro.hierarchy.ulc import ULCMultiScheme, ULCScheme
from repro.hierarchy.unilru import (
    INSERT_ADAPTIVE,
    INSERT_LRU,
    INSERT_MRU,
    UnifiedLRUMultiScheme,
    UnifiedLRUScheme,
)

__all__ = [
    "MultiLevelScheme",
    "EvictionBasedScheme",
    "CooperativeScheme",
    "cooperative_costs",
    "IndependentScheme",
    "UnifiedLRUScheme",
    "UnifiedLRUMultiScheme",
    "INSERT_MRU",
    "INSERT_LRU",
    "INSERT_ADAPTIVE",
    "ClientLRUServerMQ",
    "ULCScheme",
    "ULCMultiScheme",
    "ULCStaticPartitionScheme",
    "AggregateLRUOracle",
    "AggregateOPTOracle",
    "available_schemes",
    "make_scheme",
]
