"""The single-level replacement policy interface.

Every policy (LRU, OPT, MQ, LIRS, ...) manages the *contents* of one cache
of ``capacity`` blocks. Policies know nothing about levels, costs or
networks — multi-level behaviour lives in :mod:`repro.hierarchy`, which
composes policies and moves blocks between them.

The interface is deliberately fine-grained so the hierarchy schemes can
express placement decisions (demote this block, insert without touching,
peek at the victim) rather than only "access":

- :meth:`ReplacementPolicy.touch` — record a reference to a resident block.
- :meth:`ReplacementPolicy.insert` — add a non-resident block, evicting as
  needed; returns the evicted blocks.
- :meth:`ReplacementPolicy.remove` — explicitly invalidate a block.
- :meth:`ReplacementPolicy.victim` — peek at the next eviction candidate.
- :meth:`ReplacementPolicy.access` — the common read path
  (touch-if-present-else-insert) used by trace-driven runs.
- :meth:`ReplacementPolicy.hit_run` — touch the leading all-resident
  stretch of a run of references, for the batched drive. The default
  loops over :meth:`touch`; LRU and MRU override it with the same loop
  inlined over their own dict, which must stay *bit-identical* to it.

Blocks are opaque hashable identifiers (integers in practice).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Hashable, Iterator, List, Optional, Sequence

from repro.errors import ProtocolError
from repro.util.validation import check_int, check_positive

Block = Hashable


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one :meth:`ReplacementPolicy.access` call.

    Attributes:
        hit: whether the block was resident before the access.
        evicted: blocks evicted to make room (empty on hits; policies
            evict at most one block per single-block insert).
    """

    hit: bool
    evicted: List[Block] = field(default_factory=list)


class ReplacementPolicy(abc.ABC):
    """Abstract base class for single-level cache replacement policies."""

    #: Registry name; subclasses override (see :mod:`repro.policies.registry`).
    name = "abstract"

    def __init__(self, capacity: int) -> None:
        check_int("capacity", capacity)
        check_positive("capacity", capacity)
        self.capacity = capacity

    # -- mandatory primitives ---------------------------------------------

    @abc.abstractmethod
    def __contains__(self, block: Block) -> bool:
        """Whether ``block`` is resident."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of resident blocks."""

    @abc.abstractmethod
    def touch(self, block: Block) -> None:
        """Record a reference to a *resident* block.

        Raises :class:`ProtocolError` if the block is not resident.
        """

    @abc.abstractmethod
    def insert(self, block: Block) -> List[Block]:
        """Insert a *non-resident* block, evicting if the cache is full.

        Returns the evicted blocks (at most one). Raises
        :class:`ProtocolError` if the block is already resident.
        """

    @abc.abstractmethod
    def remove(self, block: Block) -> None:
        """Invalidate a resident block without counting it as an eviction.

        Raises :class:`ProtocolError` if the block is not resident.
        """

    @abc.abstractmethod
    def victim(self) -> Optional[Block]:
        """The block that would be evicted next, or ``None`` if not full.

        Peeking never mutates policy state.
        """

    @abc.abstractmethod
    def resident(self) -> Iterator[Block]:
        """Iterate over the resident blocks (order unspecified)."""

    # -- derived operations --------------------------------------------------

    def access(self, block: Block) -> AccessResult:
        """Reference ``block``: touch on hit, insert on miss."""
        if block in self:
            self.touch(block)
            return AccessResult(hit=True)
        return AccessResult(hit=False, evicted=self.insert(block))

    def hit_run(self, blocks: Sequence[Block]) -> int:
        """Touch the longest all-resident prefix of ``blocks``.

        Returns how many leading blocks were hits (and were touched);
        stops — without side effects — at the first non-resident block.
        Hierarchy drive loops use this to burn through hit stretches
        cheaply and hand only the residency-changing reference back to
        the exact per-reference path. An array window is read through
        a ``memoryview``, which yields plain ints (dict-key speed, no
        NumPy scalars) without copying it.
        """
        if hasattr(blocks, "tolist"):
            blocks = memoryview(blocks)  # type: ignore[arg-type]
        count = 0
        for block in blocks:
            if block not in self:
                break
            self.touch(block)
            count += 1
        return count

    def check_invariants(self) -> None:
        """Validate structural invariants (tests / debugging; O(n) ok).

        Subclasses with internal index structures override and raise
        :class:`ProtocolError` on corruption.
        """
        size = len(self)
        if size > self.capacity:
            raise ProtocolError(
                f"{self.name}: {size} resident blocks exceed capacity "
                f"{self.capacity}"
            )

    @property
    def full(self) -> bool:
        """Whether the cache holds ``capacity`` blocks."""
        return len(self) >= self.capacity

    def _require_resident(self, block: Block) -> None:
        if block not in self:
            raise ProtocolError(f"block {block!r} is not resident in {self.name}")

    def _require_absent(self, block: Block) -> None:
        if block in self:
            raise ProtocolError(f"block {block!r} is already resident in {self.name}")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(capacity={self.capacity}, len={len(self)})"
