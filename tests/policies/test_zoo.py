"""Behavioural tests for the modern-policy zoo (S3-FIFO, SIEVE,
W-TinyLFU, LeCaR).

The contract / lockstep / tiny-capacity suites already cover the
structural rules; these tests pin each policy's *distinguishing*
mechanism: SIEVE's lazy promotion, S3-FIFO's ghost-driven main-queue
admission, W-TinyLFU's frequency duel, LeCaR's regret-driven weight
updates. SIEVE also runs in lockstep with :class:`SieveSpec`, a literal
transcription of the paper's pseudocode.
"""

from __future__ import annotations

from typing import List, Optional, Set

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.policies import (
    LeCaRPolicy,
    S3FIFOPolicy,
    SIEVEPolicy,
    WTinyLFUPolicy,
)
from repro.policies.base import AccessResult


class SieveSpec:
    """SIEVE as the NSDI'24 pseudocode states it (Zhang et al., Alg. 1).

    One list, oldest (tail) first; ``hand`` indexes it, ``None`` meaning
    the tail; the sweep walks towards the head and wraps to the tail.
    ``remove`` is not in the paper: a removed hand block hands the hand
    on to its headwards neighbour, as an eviction does.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.queue: List[int] = []
        self.hand: Optional[int] = None
        self.visited: Set[int] = set()

    def access(self, block: int) -> AccessResult:
        if block in self.queue:
            self.visited.add(block)
            return AccessResult(hit=True)
        evicted = []
        if len(self.queue) == self.capacity:
            o = self.hand if self.hand is not None else 0
            while self.queue[o] in self.visited:
                self.visited.discard(self.queue[o])
                o = o + 1 if o + 1 < len(self.queue) else 0
            evicted.append(self.queue.pop(o))
            self.hand = o if o < len(self.queue) else None
        self.queue.append(block)
        return AccessResult(hit=False, evicted=evicted)

    def remove(self, block: int) -> None:
        index = self.queue.index(block)
        del self.queue[index]
        self.visited.discard(block)
        if self.hand is not None and self.hand > index:
            self.hand -= 1
        elif self.hand == index == len(self.queue):
            self.hand = None

    def victim(self) -> Optional[int]:
        if len(self.queue) < self.capacity:
            return None
        start = self.hand if self.hand is not None else 0
        order = self.queue[start:] + self.queue[:start]
        unvisited = [block for block in order if block not in self.visited]
        return unvisited[0] if unvisited else order[0]

    def resident(self) -> List[int]:
        return self.queue[::-1]


sieve_ops = st.lists(
    st.tuples(st.sampled_from(["access", "remove"]), st.integers(0, 11)),
    max_size=80,
)


#: Fills a 3-block cache, visits 1, then inserts 4: the sweep passes 1
#: and evicts 2, leaving the hand at 3 with 1 behind it.
_PASS_ONE = [("access", 1), ("access", 2), ("access", 3), ("access", 1),
             ("access", 4)]


class TestSIEVE:
    @settings(max_examples=300, deadline=None)
    @given(capacity=st.integers(1, 8), ops=sieve_ops)
    # Removing every block ahead of the hand wraps it to the tail.
    @example(capacity=3, ops=_PASS_ONE + [("remove", 3), ("remove", 4)])
    # A hit behind the hand spares that block when the hand comes round.
    @example(capacity=3, ops=_PASS_ONE + [("access", 1), ("access", 3),
                                          ("access", 4), ("access", 5)])
    def test_matches_the_paper_pseudocode(self, capacity, ops):
        policy, spec = SIEVEPolicy(capacity), SieveSpec(capacity)
        for op, block in ops:
            if op == "access":
                assert policy.access(block) == spec.access(block)
            elif block in spec.queue:
                policy.remove(block)
                spec.remove(block)
            else:
                with pytest.raises(ProtocolError):
                    policy.remove(block)
            assert policy.victim() == spec.victim()
            assert list(policy.resident()) == spec.resident()
            policy.check_invariants()

    def test_check_invariants_catches_a_block_on_both_sides(self):
        policy = SIEVEPolicy(4)
        for block in (1, 2, 3, 4):
            policy.access(block)
        policy.access(1)
        policy.access(5)  # the sweep passes 1 and evicts 2
        policy.remove(5)  # room for the planted copy below
        policy._passed[3] = False
        with pytest.raises(ProtocolError, match="both ahead of and behind"):
            policy.check_invariants()

    def test_check_invariants_catches_a_missed_wrap(self):
        policy = SIEVEPolicy(4)
        for block in (1, 2, 3):
            policy.access(block)
        policy._passed, policy._ahead = policy._ahead, policy._passed
        with pytest.raises(ProtocolError, match="without wrapping"):
            policy.check_invariants()

    def test_hits_do_not_reorder_the_queue(self):
        policy = SIEVEPolicy(3)
        for block in (1, 2, 3):
            policy.access(block)
        before = list(policy.resident())
        policy.access(1)  # hit: sets the visited bit only
        assert list(policy.resident()) == before

    def test_sweep_spares_visited_evicts_oldest_unvisited(self):
        policy = SIEVEPolicy(3)
        for block in (1, 2, 3):
            policy.access(block)
        policy.access(1)  # visit the oldest block
        result = policy.access(4)
        # The sweep starts at the tail (1), clears its bit and moves on;
        # 2 is the first unvisited block.
        assert result.evicted == [2]
        assert 1 in policy and 3 in policy and 4 in policy

    def test_survivor_bit_is_cleared_by_the_sweep(self):
        policy = SIEVEPolicy(3)
        for block in (1, 2, 3):
            policy.access(block)
        policy.access(1)
        policy.access(4)  # sweep clears 1's bit while sparing it
        # The hand resumed past 1, so the next eviction (hand at 3's
        # slot, unvisited) happens without revisiting 1.
        result = policy.access(5)
        assert result.evicted == [3]
        assert 1 in policy

    def test_victim_peek_matches_eviction_and_is_pure(self):
        policy = SIEVEPolicy(3)
        for block in (1, 2, 3):
            policy.access(block)
        policy.access(2)
        peek = policy.victim()
        assert policy.victim() == peek  # stable
        result = policy.access(9)
        assert result.evicted == [peek]


class TestS3FIFO:
    def test_one_hit_wonder_is_evicted_and_ghosted(self):
        policy = S3FIFOPolicy(4)
        for block in (1, 2, 3, 4):
            policy.access(block)
        result = policy.access(5)
        assert result.evicted == [1]
        assert 1 in policy._ghost

    def test_ghost_hit_inserts_into_main(self):
        policy = S3FIFOPolicy(4)
        for block in (1, 2, 3, 4, 5):
            policy.access(block)  # evicts 1 into the ghost queue
        result = policy.access(1)
        assert not result.hit  # ghosts are not resident
        assert 1 in policy
        assert 1 in policy._main
        assert 1 not in policy._ghost

    def test_small_reuse_promotes_to_main_on_eviction(self):
        policy = S3FIFOPolicy(4)
        for block in (1, 2, 3, 4):
            policy.access(block)
        policy.access(1)  # freq(1) -> 2 while still in small
        result = policy.access(5)
        # Lazy promotion: the eviction pass moves 1 to main and evicts
        # the next small tail (2) instead.
        assert result.evicted == [2]
        assert 1 in policy._main

    def test_frequency_saturates(self):
        policy = S3FIFOPolicy(4)
        policy.access(1)
        for _ in range(10):
            policy.access(1)
        assert policy._freq[1] == 3


class TestWTinyLFU:
    @staticmethod
    def _warmed():
        """Capacity 8 (window 1 + main 7), hot set 1..7 touched enough
        that the sketch sees them as clearly reused."""
        policy = WTinyLFUPolicy(8)
        for block in range(1, 9):
            policy.access(block)
        for _ in range(3):
            for block in range(1, 8):
                policy.access(block)
        return policy

    def test_cold_candidate_is_rejected_by_the_duel(self):
        policy = self._warmed()
        # 9 enters the window, pushing the one-hit block 8 into the
        # admission duel against a proven hot block: 8 loses.
        result = policy.access(9)
        assert result.evicted == [8]
        assert 9 in policy
        for block in range(1, 8):
            assert block in policy

    def test_hot_candidate_is_admitted(self):
        policy = self._warmed()
        policy.access(9)
        for _ in range(5):
            policy.access(9)  # window hits: the sketch learns 9 is hot
        result = policy.access(10)
        # 9 leaves the window, wins the duel and displaces a main block.
        assert len(result.evicted) == 1
        assert result.evicted[0] != 9
        assert 9 in policy

    def test_window_respects_its_target(self):
        policy = WTinyLFUPolicy(100)  # window target 1, main 99
        for block in range(50):
            policy.access(block)
        assert len(policy._window) <= policy.window_target

    def test_probation_hit_promotes_to_protected(self):
        policy = WTinyLFUPolicy(8)
        for block in range(1, 9):
            policy.access(block)
        assert policy._region[2] == "probation"
        policy.access(2)  # probation hit
        assert policy._region[2] == "protected"


class TestLeCaR:
    def test_ghost_miss_penalises_the_responsible_expert(self):
        policy = LeCaRPolicy(2, seed=0)
        policy.access(1)
        policy.access(2)
        policy.access(3)  # evicts a block into one expert's history
        assert policy.weights == (0.5, 0.5)
        evicted = next(
            b for b in (1, 2) if b not in policy
        )
        policy.access(evicted)  # regret: the evicting expert pays
        w_lru, w_lfu = policy.weights
        assert (w_lru, w_lfu) != (0.5, 0.5)
        assert w_lru + w_lfu == pytest.approx(1.0)
        assert min(w_lru, w_lfu) > 0

    def test_ghost_reinsert_restores_frequency(self):
        policy = LeCaRPolicy(2, seed=0)
        for _ in range(5):
            policy.access(1)  # freq(1) = 5
        policy.access(2)
        policy.access(1)  # 1 is MRU *and* most frequent
        # Both experts now name 2 the victim (LRU tail and min freq),
        # so the eviction is draw-independent.
        policy.access(3)
        assert 2 not in policy
        policy.access(2)  # back from the ghost list
        assert policy._freq[2] == 2  # remembered 1, +1

    def test_weights_stay_normalised_under_churn(self):
        policy = LeCaRPolicy(3, seed=7)
        for block in [1, 2, 3, 4, 1, 5, 2, 6, 1, 4, 2, 5, 3, 6] * 5:
            policy.access(block)
            w_lru, w_lfu = policy.weights
            assert w_lru + w_lfu == pytest.approx(1.0)
            assert min(w_lru, w_lfu) > 0

    def test_victim_peek_matches_the_eviction_draw(self):
        policy = LeCaRPolicy(3, seed=11)
        for block in (1, 2, 3):
            policy.access(block)
        for step in range(20):
            peek = policy.victim()
            assert peek in policy
            result = policy.access(100 + step)
            assert result.evicted == [peek]
