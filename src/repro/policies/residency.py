"""Residency bitmap: the numpy prefilter behind the hit-run kernels.

The vectorised ``hit_run`` implementations need one O(1)-per-reference
question answered for a whole array at once: *is this block resident
right now?* A dict lookup per reference is exactly the per-reference
interpretation the kernels exist to avoid, so the array-backed policies
maintain a dense boolean bitmap indexed by block id alongside their
slot index. ``bits[arr]`` then classifies a whole run in one gather.

The bitmap is an *optimisation cache*, never the source of truth:

- it is built lazily on the first run past the kernels' scalar probe
  (scalar-only users never pay for it) and kept live by the policy's
  slot alloc/release hooks, so every later gather is current;
- it only supports non-negative integer block ids — anything else makes
  the owning policy drop the bitmap and fall back to the exact
  per-reference loop (blocks are opaque hashables in general).

Hits never change residency, so one gather at the start of a run is
exact for its whole all-hit prefix (see
:meth:`repro.policies.lru.LRUPolicy.hit_run`).
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

#: Smallest bitmap allocated; grows geometrically from here.
_MIN_SIZE = 1024

#: Largest block id a dense bitmap will cover (64 MiB of flags). Sparse
#: id universes beyond this stay on the exact per-reference path rather
#: than allocating absurd arrays.
MAX_BLOCK = (1 << 26) - 1


def as_block_array(blocks: object) -> Optional[np.ndarray]:
    """``blocks`` as a 1-D array of non-negative integer ids, or ``None``.

    ``None`` means the input is not eligible for the vectorised kernels
    (wrong shape, non-integer dtype, or negative ids) and the caller
    must use the exact per-reference path.
    """
    if isinstance(blocks, np.ndarray):
        arr = blocks
    else:
        try:
            arr = np.asarray(blocks)
        except (TypeError, ValueError):  # ragged / non-array input
            return None
    if arr.ndim != 1 or arr.dtype.kind not in "iu":
        return None
    if arr.size and int(arr.min()) < 0:
        return None
    return arr


class ResidencyBitmap:
    """Dense residency flags: ``bits[b]`` is True iff block ``b`` is
    resident. Grows geometrically to cover the largest id seen."""

    __slots__ = ("bits",)

    def __init__(self, resident: Iterable[int], size_hint: int = 0) -> None:
        blocks = list(resident)
        # max()/len() raise TypeError for non-integer ids — callers
        # treat that as "bitmap unsupported for this block universe".
        top = max(blocks, default=0)
        if not isinstance(top, int) or top < 0 or top > MAX_BLOCK:
            raise TypeError(f"unsupported block id for a bitmap: {top!r}")
        size = max(_MIN_SIZE, min(size_hint, MAX_BLOCK + 1), top + 1)
        self.bits = np.zeros(size, dtype=bool)
        if blocks:
            self.bits[blocks] = True

    def ensure(self, max_block: int) -> None:
        """Grow (never shrink) so that ``max_block`` is indexable."""
        bits = self.bits
        if max_block < bits.shape[0]:
            return
        if max_block > MAX_BLOCK:
            raise IndexError(f"block id {max_block} exceeds bitmap bound")
        grown = np.zeros(
            max(max_block + 1, min(2 * bits.shape[0], MAX_BLOCK + 1)),
            dtype=bool,
        )
        grown[: bits.shape[0]] = bits
        self.bits = grown

    def add(self, block: int) -> None:
        """Mark ``block`` resident (raises for unsupported ids)."""
        if block < 0:  # TypeError for non-integer ids, by design
            raise IndexError(f"negative block id {block!r}")
        self.ensure(block)
        self.bits[block] = True

    def discard(self, block: int) -> None:
        """Mark ``block`` non-resident (raises for unsupported ids)."""
        if block < 0:
            raise IndexError(f"negative block id {block!r}")
        if block < self.bits.shape[0]:
            self.bits[block] = False
