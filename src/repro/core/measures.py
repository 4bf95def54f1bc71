"""The four locality-strength measures of paper Section 2.

For each reference position ``t`` in a trace these helpers compute:

- **R** (recency): the block's LRU-stack position at the access — the
  number of distinct blocks referenced since its previous reference
  (``NO_VALUE`` on first access).
- **ND** (next distance): when the block will be referenced next (we use
  the absolute next-reference time, which induces the same ordering as
  the paper's "period of time between the current reference and the next
  reference" while staying constant between updates).
- **NLD** (next locality distance): the recency the block *will have* at
  its next reference — R of the next reference, attributed to this one.
- **LLD** (last locality distance): the recency at which the block was
  last accessed; together with the current R it forms the online
  **LLD-R** measure ``max(LLD, R)`` that ULC is built on.

All are computed with a Fenwick tree over access timestamps in
O(n log n) total.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.policies.base import Block
from repro.util.fenwick import FenwickTree

#: Marker for "no value": first access (R, LLD) or no next access (ND, NLD).
NO_VALUE = -1


def _as_iterable(blocks: Sequence[Block]) -> Sequence[Block]:
    """A cheap per-element view of ``blocks`` yielding Python scalars.

    NumPy arrays are viewed through a ``memoryview`` — iteration then
    yields plain ints (hashable at dict speed) with no bulk list copy;
    other sequences are used as-is.
    """
    if isinstance(blocks, np.ndarray):
        return memoryview(  # type: ignore[return-value]
            np.ascontiguousarray(blocks, dtype=np.int64)
        )
    return blocks


def recencies_at_access(blocks: Sequence[Block]) -> np.ndarray:
    """R at each reference: LRU stack distance, ``NO_VALUE`` on first use.

    The value at position ``t`` is also, by definition, the **LLD** the
    block carries *after* reference ``t`` until its next reference.
    """
    blocks = _as_iterable(blocks)
    n = len(blocks)
    tree = FenwickTree(n)
    add, suffix_sum = tree.add, tree.suffix_sum
    last_slot: Dict[Block, int] = {}
    out = np.full(n, NO_VALUE, dtype=np.int64)
    for t, block in enumerate(blocks):
        slot = last_slot.get(block)
        if slot is not None:
            # One live unit per distinct block, at its latest slot: the
            # units after ``slot`` are the blocks referenced since.
            out[t] = suffix_sum(slot + 1)
            add(slot, -1)
        add(t, 1)
        last_slot[block] = t
    return out


def next_reference_times(blocks: Sequence[Block]) -> np.ndarray:
    """ND surrogate at each reference: index of the next reference to the
    same block, ``NO_VALUE`` when there is none.

    NumPy inputs take a vectorised path (stable argsort groups the
    positions of each block; within a group every position's successor
    is its next reference); other sequences take one reverse pass.
    Callers holding a :class:`~repro.workloads.base.Trace` should read
    the cached :attr:`~repro.workloads.base.TracePreprocess.next_ref`,
    which this function computes.
    """
    if isinstance(blocks, np.ndarray):
        ids = blocks
        n = len(ids)
        out = np.full(n, NO_VALUE, dtype=np.int64)
        if n:
            order = np.argsort(ids, kind="stable")
            same = ids[order[:-1]] == ids[order[1:]]
            out[order[:-1][same]] = order[1:][same]
        return out
    n = len(blocks)
    out = np.full(n, NO_VALUE, dtype=np.int64)
    last_seen: Dict[Block, int] = {}
    for t in range(n - 1, -1, -1):
        block = blocks[t]
        if block in last_seen:
            out[t] = last_seen[block]
        last_seen[block] = t
    return out


def nld_from(recencies: np.ndarray, next_ref: np.ndarray) -> np.ndarray:
    """NLD from already-computed recencies and next-reference times.

    Use this when both inputs are at hand (e.g. from a
    :class:`~repro.workloads.base.TracePreprocess` plus one
    :func:`recencies_at_access` pass) instead of :func:`nld_values`,
    which recomputes both.
    """
    out = np.full(len(recencies), NO_VALUE, dtype=np.int64)
    has_next = next_ref != NO_VALUE
    out[has_next] = recencies[next_ref[has_next]]
    return out


def nld_values(blocks: Sequence[Block]) -> np.ndarray:
    """NLD at each reference: the recency of the *next* reference to the
    same block, ``NO_VALUE`` when the block is never referenced again."""
    return nld_from(
        recencies_at_access(blocks), next_reference_times(blocks)
    )


def lld_r(lld: int, recency: int) -> int:
    """The online LLD-R measure: ``max(LLD, R)``.

    "We use the larger of LLD and R to simulate NLD" — R takes over once
    the block has gone unreferenced longer than its last locality
    distance, which restores responsiveness to cooling blocks.
    ``NO_VALUE`` (first access) propagates: a block with no LLD is
    measured purely by its recency.
    """
    if lld == NO_VALUE:
        return recency
    if recency == NO_VALUE:
        return lld
    return max(lld, recency)
