"""Trace characterisation: reuse distances, working sets, sharing.

Used by tests to verify that the synthetic substitutes actually exhibit
the patterns the paper attributes to the original traces, and by the
reports to describe workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.workloads.base import Trace


@dataclass(frozen=True)
class TraceStats:
    """Summary statistics of a trace."""

    num_refs: int
    num_unique_blocks: int
    num_clients: int
    reuse_fraction: float          # fraction of refs that are re-references
    mean_reuse_distance: float     # mean LRU stack distance of re-references
    median_reuse_distance: float
    sharing_fraction: float        # fraction of blocks touched by >1 client


def reuse_distances(trace: Trace) -> np.ndarray:
    """LRU stack distance of every re-reference (first accesses excluded).

    The stack distance of a reference is the number of distinct blocks
    accessed since the previous reference to the same block — the cache
    size at which the reference would hit under LRU: the paper's R
    (:func:`repro.core.measures.recencies_at_access`) without the first
    references.
    """
    from repro.core.measures import NO_VALUE, recencies_at_access

    recencies = recencies_at_access(trace.blocks)
    return recencies[recencies != NO_VALUE]


def lru_hit_rate_curve(trace: Trace, sizes: List[int]) -> Dict[int, float]:
    """Exact LRU hit rate at each cache size via the stack distances.

    A reference hits an LRU cache of size C iff its stack distance < C;
    one distance pass yields the whole miss-rate curve.
    """
    distances = reuse_distances(trace)
    total = len(trace)
    if total == 0:
        return {size: 0.0 for size in sizes}
    return {
        size: float((distances < size).sum()) / total for size in sizes
    }


def sharing_fraction(trace: Trace) -> float:
    """Fraction of distinct blocks referenced by more than one client."""
    if len(trace) == 0:
        return 0.0
    pairs = np.stack([trace.blocks, trace.clients.astype(np.int64)], axis=1)
    unique_pairs = np.unique(pairs, axis=0)
    blocks, counts = np.unique(unique_pairs[:, 0], return_counts=True)
    return float((counts > 1).sum()) / len(blocks)


def describe(trace: Trace) -> TraceStats:
    """Compute :class:`TraceStats` for a trace."""
    distances = reuse_distances(trace)
    reused = len(distances)
    return TraceStats(
        num_refs=len(trace),
        num_unique_blocks=trace.num_unique_blocks,
        num_clients=trace.num_clients,
        reuse_fraction=reused / len(trace) if len(trace) else 0.0,
        mean_reuse_distance=float(distances.mean()) if reused else 0.0,
        median_reuse_distance=float(np.median(distances)) if reused else 0.0,
        sharing_fraction=sharing_fraction(trace),
    )


def working_set_sizes(trace: Trace, window: int) -> np.ndarray:
    """Distinct blocks in each non-overlapping window of ``window`` refs."""
    blocks = trace.blocks
    sizes = []
    for start in range(0, len(blocks), window):
        sizes.append(np.unique(blocks[start : start + window]).size)
    return np.asarray(sizes, dtype=np.int64)
