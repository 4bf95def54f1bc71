"""First-In First-Out replacement.

FIFO ignores references after insertion; it is included as a cheap
baseline and as the building block of the CLOCK approximation.

Structurally FIFO is LRU with the recency movement deleted: the same
slab queue (insert at the front, evict at the back), but :meth:`touch`
leaves the order alone. Subclassing :class:`~repro.policies.lru.LRUPolicy`
buys the flat-array kernel, the residency bitmap and the vectorised
``hit_run`` fast path for free — an all-hit stretch is a no-op here,
which makes FIFO the cheapest policy to batch.
"""

from __future__ import annotations

import numpy as np

from repro.policies.base import Block
from repro.policies.lru import LRUPolicy


class FIFOPolicy(LRUPolicy):
    """Evict the block that has been resident longest."""

    name = "fifo"

    def touch(self, block: Block) -> None:
        self._require_resident(block)
        # FIFO position is fixed at insertion time.

    def _touch_segment(self, seg: np.ndarray) -> None:
        """An all-resident stretch has no effect under FIFO."""
