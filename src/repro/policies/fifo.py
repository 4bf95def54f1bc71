"""First-In First-Out replacement.

FIFO ignores references after insertion; it is included as a cheap
baseline and as the building block of the CLOCK approximation.

Structurally FIFO is LRU with the recency movement deleted: the same
``OrderedDict`` queue (insert at the end, evict the first key), but
:meth:`touch` leaves the order alone, so an all-hit stretch only checks
residency.
"""

from __future__ import annotations

from repro.policies.base import Block, ReplacementPolicy
from repro.policies.lru import LRUPolicy


class FIFOPolicy(LRUPolicy):
    """Evict the block that has been resident longest."""

    name = "fifo"

    def touch(self, block: Block) -> None:
        self._require_resident(block)
        # FIFO position is fixed at insertion time.

    # A hit moves nothing, so the all-hit prefix is the default touch
    # loop (a residency test per reference) rather than LRU's moving one.
    hit_run = ReplacementPolicy.hit_run
