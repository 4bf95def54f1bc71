"""W-TinyLFU replacement — Einziger, Friedman & Manes, ACM ToS 2017.

The admission-controlled design behind Caffeine: a small *window* LRU
(~1% of capacity) absorbs bursts, and the main region is a segmented
LRU (probation + protected) guarded by the TinyLFU admission filter. A
block leaving the window duels the main region's next victim — it is
admitted only if its estimated frequency is higher, so one-hit wonders
never displace proven blocks.

Frequency lives in a small count-min sketch with saturating 4-bit-style
counters plus a *doorkeeper* set that absorbs first occurrences; every
``sample_size`` recorded references the sketch is halved and the
doorkeeper cleared (the aging scheme that keeps estimates fresh).

The three resident lists are ``OrderedDict``s whose first key is the
LRU end, and one dict names each resident block's list. Hashing is
``zlib.crc32`` with per-row salts, so estimates are deterministic
across processes (no reliance on randomised ``hash()``).
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.errors import ProtocolError
from repro.policies.base import Block, ReplacementPolicy
from repro.util.validation import check_fraction

#: Sketch counters saturate here (4 bits in Caffeine).
_COUNTER_MAX = 15

_WINDOW = "window"
_PROBATION = "probation"
_PROTECTED = "protected"

#: Block ids reach the sketch as Python ints or as numpy scalars (a
#: caller iterating an array itself); both must hash to the same
#: counters.
_INTEGRAL = (int, np.integer)


class _FrequencySketch:
    """Count-min sketch with halving decay and a doorkeeper set."""

    __slots__ = ("_width", "_mask", "_rows", "_door", "_ops", "_sample")

    _SALTS = (0x9E3779B9, 0x85EBCA6B, 0xC2B2AE35, 0x27D4EB2F)

    def __init__(self, capacity: int) -> None:
        width = 16
        while width < 4 * capacity:
            width *= 2
        self._width = width
        self._mask = width - 1
        self._rows = [[0] * width for _ in self._SALTS]
        self._door: set = set()
        self._ops = 0
        self._sample = max(16, 10 * capacity)

    # repro: bound O(1) amortized -- the halving decay scans the sketch
    # once per sample window (>= 10x capacity references), so its cost
    # per recorded reference is a constant fraction of a counter
    def record(self, block: Block) -> None:
        """Count one reference to ``block`` (with doorkeeper + aging)."""
        if isinstance(block, _INTEGRAL):
            block = int(block)
        if block not in self._door:
            self._door.add(block)
        else:
            key = repr(block).encode()
            mask = self._mask
            rows = self._rows
            salts = self._SALTS
            row = rows[0]
            index = zlib.crc32(key, salts[0]) & mask
            if row[index] < _COUNTER_MAX:
                row[index] += 1
            row = rows[1]
            index = zlib.crc32(key, salts[1]) & mask
            if row[index] < _COUNTER_MAX:
                row[index] += 1
            row = rows[2]
            index = zlib.crc32(key, salts[2]) & mask
            if row[index] < _COUNTER_MAX:
                row[index] += 1
            row = rows[3]
            index = zlib.crc32(key, salts[3]) & mask
            if row[index] < _COUNTER_MAX:
                row[index] += 1
        self._ops += 1
        if self._ops >= self._sample:
            self._age()

    def _age(self) -> None:
        for row in self._rows:
            for index in range(self._width):
                row[index] >>= 1
        self._door.clear()
        self._ops = 0

    def estimate(self, block: Block) -> int:
        """Estimated reference count (pure)."""
        if isinstance(block, _INTEGRAL):
            block = int(block)
        key = repr(block).encode()
        mask = self._mask
        rows = self._rows
        salts = self._SALTS
        freq = rows[0][zlib.crc32(key, salts[0]) & mask]
        value = rows[1][zlib.crc32(key, salts[1]) & mask]
        if value < freq:
            freq = value
        value = rows[2][zlib.crc32(key, salts[2]) & mask]
        if value < freq:
            freq = value
        value = rows[3][zlib.crc32(key, salts[3]) & mask]
        if value < freq:
            freq = value
        return freq + 1 if block in self._door else freq


class WTinyLFUPolicy(ReplacementPolicy):
    """W-TinyLFU: window LRU + TinyLFU-admitted segmented-LRU main.

    Args:
        capacity: total resident blocks.
        window_fraction: share of capacity for the window (default
            0.01; at least one block).
        protected_fraction: share of the main region reserved for the
            protected segment (default 0.8).
    """

    name = "wtinylfu"

    def __init__(
        self,
        capacity: int,
        window_fraction: float = 0.01,
        protected_fraction: float = 0.8,
    ) -> None:
        super().__init__(capacity)
        check_fraction("window_fraction", window_fraction)
        check_fraction("protected_fraction", protected_fraction)
        self.window_target = max(1, int(capacity * window_fraction))
        if self.window_target > capacity:
            self.window_target = capacity  # pragma: no cover - defensive
        self.main_target = capacity - self.window_target
        self.protected_target = int(self.main_target * protected_fraction)
        self._window: "OrderedDict[Block, None]" = OrderedDict()
        self._probation: "OrderedDict[Block, None]" = OrderedDict()
        self._protected: "OrderedDict[Block, None]" = OrderedDict()
        self._lists = {
            _WINDOW: self._window,
            _PROBATION: self._probation,
            _PROTECTED: self._protected,
        }
        # Every resident block -> the name of the list holding it.
        self._region: Dict[Block, str] = {}
        self._sketch = _FrequencySketch(capacity)

    def __contains__(self, block: Block) -> bool:
        return block in self._region

    def __len__(self) -> int:
        return len(self._region)

    # -- internals ---------------------------------------------------------

    def _main_victim(self) -> Optional[Block]:
        """Block the main region would evict next (probation LRU first)."""
        if self._probation:
            return next(iter(self._probation))
        if self._protected:
            return next(iter(self._protected))
        return None

    def _demote_window_tail(self) -> Optional[Block]:
        """Move the window LRU into the main region through the TinyLFU
        admission duel; returns the evicted block, if any."""
        region = self._region
        candidate = self._window.popitem(last=False)[0]
        if len(self._probation) + len(self._protected) < self.main_target:
            region[candidate] = _PROBATION
            self._probation[candidate] = None
            return None
        victim = self._main_victim()
        sketch = self._sketch
        if victim is not None and (
            sketch.estimate(candidate) > sketch.estimate(victim)
        ):
            del self._lists[region.pop(victim)][victim]
            region[candidate] = _PROBATION
            self._probation[candidate] = None
            return victim
        # The candidate loses the duel, or the main region has no room
        # at all (main_target == 0): the candidate itself is evicted.
        del region[candidate]
        return candidate

    # -- ReplacementPolicy interface ---------------------------------------

    def touch(self, block: Block) -> None:
        region = self._region.get(block)
        if region is None:
            self._require_resident(block)
            return  # pragma: no cover - _require_resident raised
        self._sketch.record(block)
        if region == _WINDOW:
            self._window.move_to_end(block)
            return
        protected = self._protected
        if region == _PROTECTED:
            protected.move_to_end(block)
            return
        # Probation hit: promote to protected, demoting its LRU back to
        # probation when the segment overflows.
        del self._probation[block]
        self._region[block] = _PROTECTED
        protected[block] = None
        if len(protected) > max(1, self.protected_target):
            demoted = protected.popitem(last=False)[0]
            self._region[demoted] = _PROBATION
            self._probation[demoted] = None

    # repro: bound O(1) amortized -- each window-overflow iteration
    # demotes one block that exactly one insertion pushed
    def insert(self, block: Block) -> List[Block]:
        self._require_absent(block)
        self._sketch.record(block)
        evicted: List[Block] = []
        window = self._window
        target = self.window_target
        self._region[block] = _WINDOW
        window[block] = None
        while len(window) > target:
            victim = self._demote_window_tail()
            if victim is not None:
                evicted.append(victim)
        return evicted

    def remove(self, block: Block) -> None:
        self._require_resident(block)
        del self._lists[self._region.pop(block)][block]

    def victim(self) -> Optional[Block]:
        """Approximate peek (ARC precedent): the block the admission
        duel would drop if a fresh block arrived now. Pure — reads the
        sketch without recording."""
        if not self.full:
            return None
        if not self._window:
            return self._main_victim()
        if len(self._probation) + len(self._protected) < self.main_target:
            # The window tail would slide into main without an eviction;
            # fall back to the main region's own victim. Unreachable
            # when full (main is at target then), but kept for safety.
            return self._main_victim()  # pragma: no cover
        candidate = next(iter(self._window))
        victim = self._main_victim()
        sketch = self._sketch
        if victim is not None and (
            sketch.estimate(candidate) > sketch.estimate(victim)
        ):
            return victim
        return candidate

    def resident(self) -> Iterator[Block]:
        """Iterate window, then probation, then protected (MRU first)."""
        yield from reversed(self._window)
        yield from reversed(self._probation)
        yield from reversed(self._protected)

    def check_invariants(self) -> None:
        super().check_invariants()
        total = sum(len(lst) for lst in self._lists.values())
        if total != len(self._region):
            raise ProtocolError(
                f"wtinylfu: lists hold {total} blocks, index tracks "
                f"{len(self._region)}"
            )
        if len(self._window) > self.window_target:
            raise ProtocolError(
                f"wtinylfu: window holds {len(self._window)} blocks, "
                f"target {self.window_target}"
            )
        if len(self._probation) + len(self._protected) > self.main_target:
            raise ProtocolError(
                f"wtinylfu: main region holds "
                f"{len(self._probation) + len(self._protected)} blocks, "
                f"target {self.main_target}"
            )
        for block, region in self._region.items():
            if region not in self._lists or block not in self._lists[region]:
                raise ProtocolError(
                    f"wtinylfu: block {block!r} not linked in its region "
                    f"{region!r}"
                )
