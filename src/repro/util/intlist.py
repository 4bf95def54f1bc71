"""Slab-allocated intrusive linked lists over flat integer arrays.

This is the array kernel under the two ULC structures that insert a
block next to an anchor: the uniLRUstack's global and per-level lists,
where DemotionSearching puts a demoted block at its recency rank in the
next level's list, and the multi-client server's gLRU, where a demoted
block goes next to its owner's neighbour. Every single-level policy
keeps ``OrderedDict`` s, which cannot insert next to an anchor.
Instead of one node object per element per list, elements are integer
*slots* handed out by an :class:`IntSlab`, and each
:class:`IntLinkedList` stores its links in two plain Python lists
(``prev`` / ``next``) indexed by slot.

Why this layout wins (cf. Inoue's multi-step LRU, arXiv:2112.09981):

- zero allocation on the steady-state path — a splice writes four
  list cells; the pointer design allocated a fresh node object per
  (re)insertion;
- several lists can share one slot space: the uniLRUstack links every
  tracked block into the global list *and* one per-level list using the
  same slot, so one dictionary lookup keys all of them;
- the flat arrays are cache-friendly and cheap to validate — the
  structural invariants reduce to integer identities over the arrays.

Kernel contract
---------------

``prev`` and ``next`` are deliberately **public**: the hot loops in
:mod:`repro.core.stack`, :mod:`repro.core.protocol` and
:mod:`repro.core.multi` splice slots inline instead of paying a method
call per link update. Code doing so must preserve the invariants
checked by :meth:`IntLinkedList.check_invariants`:

- slot ``0`` is the list's circular sentinel (``SENTINEL``); it is never
  allocated by the slab;
- a slot is *linked* iff ``prev[slot] != UNLINKED``; linked slots form
  one circular chain through the sentinel, and ``size`` counts them;
- an unlinked slot has ``prev[slot] == next[slot] == UNLINKED``.

The head end (``next[0]``) is the most-recently-used end for every
stack built on this class; the tail (``prev[0]``) is the eviction end.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.errors import ProtocolError

#: The circular sentinel's slot. Slot 0 is reserved in every slab.
SENTINEL = 0

#: Link value marking a slot as not part of a list.
UNLINKED = -1


class IntSlab:
    """Slot allocator shared by one or more :class:`IntLinkedList` s.

    Slots are small dense integers (``1..capacity-1``; slot ``0`` is the
    shared sentinel). Freed slots are recycled LIFO, so long-running
    structures with bounded live size keep a bounded slot space — the
    *slab* property that keeps the link arrays compact.
    """

    __slots__ = ("_free", "_capacity", "_lists", "in_use")

    def __init__(self) -> None:
        self._free: List[int] = []
        self._capacity = 1  # slot 0: sentinel
        self._lists: List["IntLinkedList"] = []
        #: Number of currently allocated slots.
        self.in_use = 0

    def attach(self, lst: "IntLinkedList") -> None:
        """Register a list so its link arrays grow with the slab."""
        self._lists.append(lst)
        lst._grow_to(self._capacity)

    # repro: bound O(1) amortized -- geometric growth: each doubling
    # pays for the allocations since the last, so steady state is one
    # list pop
    def alloc(self) -> int:
        """Allocate a slot (recycled if possible). O(1) amortised.

        Growth is geometric: when the free pool is exhausted the slab
        extends every attached list's arrays in one batch and queues the
        new slots (lowest first), so steady-state allocation is a single
        list pop.
        """
        self.in_use += 1
        if self._free:
            return self._free.pop()
        grow = max(32, self._capacity // 2)
        new_capacity = self._capacity + grow
        for lst in self._lists:
            lst._grow_to(new_capacity)
        self._free.extend(range(new_capacity - 1, self._capacity, -1))
        slot = self._capacity
        self._capacity = new_capacity
        return slot

    def free(self, slot: int) -> None:
        """Return a slot to the free pool. The caller must have unlinked
        it from every attached list first."""
        if not 1 <= slot < self._capacity:
            raise ProtocolError(f"free of invalid slot {slot}")
        for lst in self._lists:
            if lst.prev[slot] != UNLINKED:
                raise ProtocolError(
                    f"slot {slot} freed while still linked in a list"
                )
        self.in_use -= 1
        self._free.append(slot)

    def check_invariants(self) -> None:
        """Validate allocator bookkeeping; raises :class:`ProtocolError`.

        Beyond the free-pool checks, this validates the *conservation*
        contract the static ``repro check --kernel`` pass proves from
        the other side: ``allocated + free + sentinel == capacity``,
        every attached list's arrays span exactly the slab's slot
        space, and every slot linked in any attached list is an
        allocated (non-free) slot reachable from exactly one position
        of that list's chain (delegated to each list's own
        :meth:`IntLinkedList.check_invariants`).
        """
        if self.in_use != self._capacity - 1 - len(self._free):
            raise ProtocolError(
                f"slab accounting broken: capacity={self._capacity}, "
                f"free={len(self._free)}, in_use={self.in_use}"
            )
        seen = set(self._free)
        if len(seen) != len(self._free):
            raise ProtocolError("slab free list contains duplicates")
        if SENTINEL in seen:
            raise ProtocolError("sentinel slot on the slab free list")
        for slot in self._free:
            if not 1 <= slot < self._capacity:
                raise ProtocolError(f"free slot {slot} out of range")
            for lst in self._lists:
                if lst.prev[slot] != UNLINKED:
                    raise ProtocolError(
                        f"free slot {slot} still linked in a list"
                    )
        for lst in self._lists:
            if len(lst.prev) != self._capacity:
                raise ProtocolError(
                    f"attached list arrays cover {len(lst.prev)} slots "
                    f"but the slab capacity is {self._capacity}"
                )
            lst.check_invariants()


class IntLinkedList:
    """Doubly linked list of slab slots with O(1) splicing.

    Operationally equivalent to a pointer-node doubly linked list (the
    reference ``tests/util/test_intlist.py`` drives it against in
    lockstep), with integer slots in place of node objects: linking an
    already-linked slot or touching a slot this list does not own
    raises :class:`ProtocolError`, and the head is the MRU end.

    The ``prev`` / ``next`` arrays are public for kernel callers (see
    the module docstring); everyone else should stay on the methods.
    """

    __slots__ = ("prev", "next", "size", "_slab")

    def __init__(self, slab: Optional[IntSlab] = None) -> None:
        #: prev[slot]/next[slot]: circular links through slot 0.
        self.prev: List[int] = [SENTINEL]
        self.next: List[int] = [SENTINEL]
        #: Number of linked slots (public for kernel callers).
        self.size = 0
        self._slab = slab if slab is not None else IntSlab()
        self._slab.attach(self)

    @property
    def slab(self) -> IntSlab:
        """The slot allocator this list draws from."""
        return self._slab

    def _grow_to(self, capacity: int) -> None:
        grow = capacity - len(self.prev)
        if grow > 0:
            self.prev.extend([UNLINKED] * grow)
            self.next.extend([UNLINKED] * grow)

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return self.size

    # repro: bound O(n) -- a full chain walk by design; lazy, so
    # callers pay only for the prefix they consume
    def __iter__(self) -> Iterator[int]:
        """Iterate slots head to tail; tolerates removal of the current
        slot but not of the one after it."""
        nxt = self.next
        slot = nxt[SENTINEL]
        while slot != SENTINEL:
            upcoming = nxt[slot]
            yield slot
            slot = upcoming

    # repro: bound O(n) -- a full chain walk by design; lazy, so
    # callers pay only for the suffix they consume
    def iter_reverse(self) -> Iterator[int]:
        """Iterate slots tail to head (same removal tolerance)."""
        prv = self.prev
        slot = prv[SENTINEL]
        while slot != SENTINEL:
            upcoming = prv[slot]
            yield slot
            slot = upcoming

    # -- mutations ---------------------------------------------------------

    def _check_owned(self, slot: int) -> None:
        if (
            not 1 <= slot < len(self.prev)
            or self.prev[slot] == UNLINKED
        ):
            raise ProtocolError(f"slot {slot} is not linked in this list")

    def _check_free(self, slot: int) -> None:
        if not 1 <= slot < len(self.prev):
            raise ProtocolError(f"slot {slot} outside the slab")
        if self.prev[slot] != UNLINKED:
            raise ProtocolError(f"slot {slot} is already linked")

    def _link(self, slot: int, prev_slot: int, next_slot: int) -> None:
        prv, nxt = self.prev, self.next
        prv[slot] = prev_slot
        nxt[slot] = next_slot
        nxt[prev_slot] = slot
        prv[next_slot] = slot
        self.size += 1

    def push_front(self, slot: int) -> int:
        """Insert ``slot`` at the head. Returns the slot."""
        self._check_free(slot)
        self._link(slot, SENTINEL, self.next[SENTINEL])
        return slot

    def insert_before(self, slot: int, anchor: int) -> int:
        """Insert ``slot`` immediately before ``anchor`` (headwards)."""
        self._check_free(slot)
        self._check_owned(anchor)
        self._link(slot, self.prev[anchor], anchor)
        return slot

    def insert_after(self, slot: int, anchor: int) -> int:
        """Insert ``slot`` immediately after ``anchor`` (tailwards)."""
        self._check_free(slot)
        self._check_owned(anchor)
        self._link(slot, anchor, self.next[anchor])
        return slot

    def remove(self, slot: int) -> int:
        """Unlink ``slot``. Returns the slot."""
        self._check_owned(slot)
        prv, nxt = self.prev, self.next
        p, n = prv[slot], nxt[slot]
        nxt[p] = n
        prv[n] = p
        prv[slot] = UNLINKED
        nxt[slot] = UNLINKED
        self.size -= 1
        return slot

    def pop_back(self) -> int:
        """Remove and return the tail slot."""
        if self.size == 0:
            raise ProtocolError("pop_back on empty list")
        return self.remove(self.prev[SENTINEL])

    # -- diagnostics -------------------------------------------------------

    def check_invariants(self) -> None:
        """Validate the array invariants; raises :class:`ProtocolError`.

        Checks that the linked slots form one circular chain through the
        sentinel with symmetric ``prev``/``next`` links, that ``size``
        matches the chain length, that every slot outside the chain
        is fully unlinked (``prev == next == UNLINKED``), and the
        slab-conservation half of the contract: no linked slot sits on
        the slab free pool, and the chain never holds more slots than
        the slab has allocated.
        """
        if len(self.prev) != len(self.next):
            raise ProtocolError("prev/next arrays out of step")
        seen = set()
        slot = self.next[SENTINEL]
        steps = 0
        while slot != SENTINEL:
            if steps > self.size:
                raise ProtocolError("list chain longer than its size")
            if not 1 <= slot < len(self.prev):
                raise ProtocolError(f"chain references invalid slot {slot}")
            if slot in seen:
                raise ProtocolError(f"slot {slot} appears twice in the chain")
            seen.add(slot)
            nxt = self.next[slot]
            if self.prev[nxt] != slot:
                raise ProtocolError(
                    f"asymmetric link: next[{slot}]={nxt} but "
                    f"prev[{nxt}]={self.prev[nxt]}"
                )
            slot = nxt
            steps += 1
        if steps != self.size:
            raise ProtocolError(
                f"size {self.size} disagrees with chain length {steps}"
            )
        for slot in range(1, len(self.prev)):
            if slot in seen:
                continue
            if self.prev[slot] != UNLINKED or self.next[slot] != UNLINKED:
                raise ProtocolError(
                    f"slot {slot} carries links but is not in the chain"
                )
        ghosts = seen.intersection(self._slab._free)
        if ghosts:
            raise ProtocolError(
                f"slot(s) {sorted(ghosts)} are linked in this list but "
                f"sit on the slab free pool (use after free)"
            )
        if self.size > self._slab.in_use:
            raise ProtocolError(
                f"list links {self.size} slots but the slab has only "
                f"{self._slab.in_use} allocated"
            )
