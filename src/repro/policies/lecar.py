"""LeCaR replacement — Vietri et al., HotStorage 2018 (CACHEUS lineage).

LeCaR (Learning Cache Replacement) keeps exactly two experts — pure
recency (LRU) and pure frequency (LFU) — and learns *online* which one
to trust via regret minimisation. Every eviction draws the deciding
expert from a weight vector; every miss on a recently evicted block is
regret, and the expert responsible is penalised multiplicatively with
an exponentially decayed learning signal:

    w_expert *= exp(-learning_rate * discount ** age)

where ``age`` is the number of references since that block's eviction
and ``discount = 0.005 ** (1 / capacity)`` (both from the paper).

The LRU expert reads a recency ``OrderedDict`` (first key = LRU end).
The LFU expert reads frequency buckets, as :mod:`repro.policies.lfu`
does: each count maps to an ``OrderedDict`` of the blocks with that
count. A block enters its bucket when it is referenced, so each bucket
is in recency order, and the LFU victim — the least recently used block
among those of minimal frequency (deterministic tie-break) — is the
first key of the lowest bucket.
Randomness comes from a seeded generator only, and the next expert
draw is pre-computed and cached so :meth:`victim` is a stable pure
peek of the eviction that would happen.
"""

from __future__ import annotations

import math
import sys
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError, ProtocolError
from repro.policies.base import Block, ReplacementPolicy
from repro.util.rng import make_stdlib_rng
from repro.util.validation import check_finite, check_positive

_LRU = 0
_LFU = 1
#: Floor of a penalised weight. A large learning rate can underflow a
#: penalty to 0.0; without the floor two such penalties zero both
#: weights and the normalisation divides by zero. With it both weights
#: stay positive, and two experts penalised that hard end up tied.
_MIN_WEIGHT = sys.float_info.min


class LeCaRPolicy(ReplacementPolicy):
    """LeCaR: regret-minimising adaptive mix of LRU and LFU.

    Args:
        capacity: total resident blocks.
        learning_rate: multiplicative-update step (default 0.45).
        discount_base: per-capacity decay base; the effective discount
            is ``discount_base ** (1 / capacity)`` (default 0.005).
        seed: seed for the expert-selection draws.
        history_factor: per-expert ghost-list bound as a multiple of
            capacity (default 1.0).
    """

    name = "lecar"

    def __init__(
        self,
        capacity: int,
        learning_rate: float = 0.45,
        discount_base: float = 0.005,
        seed: int = 0,
        history_factor: float = 1.0,
    ) -> None:
        super().__init__(capacity)
        check_positive("learning_rate", learning_rate)
        check_finite("learning_rate", learning_rate)
        if not 0 < discount_base < 1:
            raise ConfigurationError(
                f"discount_base must be in (0, 1), got {discount_base!r}"
            )
        check_finite("history_factor", history_factor)
        self.learning_rate = learning_rate
        self.discount = discount_base ** (1.0 / capacity)
        self.history_capacity = max(1, int(capacity * history_factor))
        self._recency: "OrderedDict[Block, None]" = OrderedDict()
        self._freq: Dict[Block, int] = {}
        # frequency -> blocks at that frequency, LRU first.
        self._buckets: Dict[int, "OrderedDict[Block, None]"] = {}
        self._weights = [0.5, 0.5]
        # Per-expert ghost lists: block -> (eviction time, frequency).
        self._history: Tuple[
            "OrderedDict[Block, Tuple[int, int]]", ...
        ] = (OrderedDict(), OrderedDict())
        self._clock = 0
        self._rng = make_stdlib_rng(seed)
        #: Cached uniform draw for the *next* eviction decision, so
        #: victim() peeks the same choice the eviction will make.
        self._pending_draw: Optional[float] = None

    def __contains__(self, block: Block) -> bool:
        return block in self._freq

    def __len__(self) -> int:
        return len(self._freq)

    # -- frequency buckets -------------------------------------------------

    def _link(self, block: Block, freq: int) -> None:
        """Give ``block`` frequency ``freq``, as the MRU of its bucket."""
        self._freq[block] = freq
        bucket = self._buckets.get(freq)
        if bucket is None:
            bucket = self._buckets[freq] = OrderedDict()
        bucket[block] = None

    def _unlink(self, block: Block) -> int:
        """Drop ``block`` from its bucket; returns its frequency."""
        freq = self._freq.pop(block)
        bucket = self._buckets[freq]
        del bucket[block]
        if not bucket:
            del self._buckets[freq]
        return freq

    # -- the experts -------------------------------------------------------

    def _lru_victim(self) -> Block:
        return next(iter(self._recency))

    # repro: bound O(n) -- min scan over the occupied frequency
    # buckets (at most one per distinct frequency)
    def _lfu_victim(self) -> Block:
        """Least recently used among the minimal-frequency blocks."""
        buckets = self._buckets
        return next(iter(buckets[min(buckets)]))

    def _draw(self) -> float:
        if self._pending_draw is None:
            self._pending_draw = self._rng.random()
        return self._pending_draw

    def _choose_expert(self) -> int:
        return _LRU if self._draw() < self._weights[_LRU] else _LFU

    # repro: bound O(1) amortized -- the history trim pops at most the
    # entries earlier calls pushed
    def _remember(self, expert: int, block: Block, freq: int) -> None:
        history = self._history[expert]
        history[block] = (self._clock, freq)
        while len(history) > self.history_capacity:
            history.popitem(last=False)

    def _learn_from(self, block: Block) -> int:
        """Penalise the expert whose past eviction of ``block`` now
        costs a miss; drop the block from the histories. Returns the
        remembered frequency (0 if the block was not a ghost)."""
        remembered = 0
        for expert in (_LRU, _LFU):
            entry = self._history[expert].pop(block, None)
            if entry is None:
                continue
            remembered = max(remembered, entry[1])
            age = self._clock - entry[0]
            penalty = math.exp(
                -self.learning_rate * self.discount ** age
            )
            weights = self._weights
            weights[expert] = max(weights[expert] * penalty, _MIN_WEIGHT)
            total = weights[_LRU] + weights[_LFU]
            weights[_LRU] /= total
            weights[_LFU] /= total
        return remembered

    def _evict_one(self) -> Block:
        expert = self._choose_expert()
        self._pending_draw = None
        block = self._lru_victim() if expert == _LRU else self._lfu_victim()
        del self._recency[block]
        self._remember(expert, block, self._unlink(block))
        return block

    # -- ReplacementPolicy interface ---------------------------------------

    def touch(self, block: Block) -> None:
        if block not in self._freq:
            self._require_resident(block)
            return  # pragma: no cover - _require_resident raised
        self._clock += 1
        self._link(block, self._unlink(block) + 1)
        self._recency.move_to_end(block)

    def insert(self, block: Block) -> List[Block]:
        self._require_absent(block)
        self._clock += 1
        # A block returning from a ghost list penalises the expert that
        # evicted it and resumes its remembered frequency.
        restored = self._learn_from(block)
        evicted: List[Block] = []
        if len(self._freq) >= self.capacity:
            evicted.append(self._evict_one())
        self._link(block, restored + 1)
        self._recency[block] = None
        return evicted

    def remove(self, block: Block) -> None:
        self._require_resident(block)
        self._unlink(block)
        del self._recency[block]

    def victim(self) -> Optional[Block]:
        """Stable pure peek: the cached draw used here is the one the
        next eviction will consume."""
        if not self.full or not self._freq:
            return None
        if self._choose_expert() == _LRU:
            return self._lru_victim()
        return self._lfu_victim()

    def resident(self) -> Iterator[Block]:
        """Iterate blocks from most to least recently used."""
        return reversed(self._recency)

    def check_invariants(self) -> None:
        super().check_invariants()
        if len(self._recency) != len(self._freq):
            raise ProtocolError(
                f"lecar: recency size {len(self._recency)} != "
                f"{len(self._freq)} counted blocks"
            )
        weight_sum = self._weights[_LRU] + self._weights[_LFU]
        if not math.isclose(weight_sum, 1.0, rel_tol=1e-9):
            raise ProtocolError(
                f"lecar: expert weights sum to {weight_sum}, expected 1"
            )
        if not min(self._weights) > 0:
            raise ProtocolError(f"lecar: non-positive weight {self._weights}")
        for expert in (_LRU, _LFU):
            history = self._history[expert]
            if len(history) > self.history_capacity:
                raise ProtocolError(
                    f"lecar: history {expert} holds {len(history)} "
                    f"entries, bound {self.history_capacity}"
                )
            for block in history:
                if block in self._freq:
                    raise ProtocolError(
                        f"lecar: block {block!r} both resident and in "
                        f"history {expert}"
                    )
        for block, freq in self._freq.items():
            if block not in self._recency:
                raise ProtocolError(
                    f"lecar: counted block {block!r} not in recency order"
                )
            if freq < 1:
                raise ProtocolError(
                    f"lecar: resident block {block!r} has frequency "
                    f"{freq} < 1"
                )
        # Every counted block sits in exactly the bucket of its count,
        # and each bucket lists its blocks in recency order, which the
        # LFU expert's LRU tie-break relies on.
        position = {block: index for index, block in enumerate(self._recency)}
        bucketed = 0
        for freq, bucket in self._buckets.items():
            if not bucket:
                raise ProtocolError(f"lecar: empty bucket for frequency {freq}")
            last = -1
            for block in bucket:
                if self._freq.get(block) != freq:
                    raise ProtocolError(
                        f"lecar: block {block!r} in bucket {freq} has "
                        f"frequency {self._freq.get(block)}"
                    )
                if position[block] < last:
                    raise ProtocolError(
                        f"lecar: bucket {freq} out of recency order at "
                        f"{block!r}"
                    )
                last = position[block]
            bucketed += len(bucket)
        if bucketed != len(self._freq):
            raise ProtocolError(
                f"lecar: buckets hold {bucketed} blocks, "
                f"{len(self._freq)} counted"
            )

    # -- introspection -----------------------------------------------------

    @property
    def weights(self) -> Tuple[float, float]:
        """Current (LRU, LFU) expert weights."""
        return (self._weights[_LRU], self._weights[_LFU])
