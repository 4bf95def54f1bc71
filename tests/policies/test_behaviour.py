"""Behavioural tests pinning down each policy's defining decisions."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ProtocolError, UnknownPolicyError
from repro.policies import (
    ARCPolicy,
    CLOCKPolicy,
    FIFOPolicy,
    LFUPolicy,
    LIRSPolicy,
    LRUPolicy,
    MQPolicy,
    MRUPolicy,
    NEVER,
    OPTPolicy,
    RandomPolicy,
    available_policies,
    compute_next_use,
    make_policy,
    register_policy,
)


def hit_rate(policy, trace):
    hits = sum(policy.access(block).hit for block in trace)
    return hits / len(trace)


class TestLRU:
    def test_evicts_least_recently_used(self):
        policy = LRUPolicy(2)
        policy.access("a")
        policy.access("b")
        policy.access("a")  # refresh a; b is now LRU
        result = policy.access("c")
        assert result.evicted == ["b"]

    def test_recency_order_snapshot(self):
        policy = LRUPolicy(3)
        for block in ["a", "b", "c", "a"]:
            policy.access(block)
        assert policy.recency_order() == ["a", "c", "b"]

    def test_victim_is_lru_tail(self):
        policy = LRUPolicy(2)
        policy.access("a")
        policy.access("b")
        assert policy.victim() == "a"

    def test_duplicate_insert_rejected(self):
        policy = LRUPolicy(2)
        policy.access("a")
        with pytest.raises(ProtocolError):
            policy.insert("a")


class TestMRU:
    def test_evicts_most_recently_used(self):
        policy = MRUPolicy(2)
        policy.access("a")
        policy.access("b")
        result = policy.access("c")
        assert result.evicted == ["b"]

    def test_mru_beats_lru_on_loop(self):
        """On a cyclic scan larger than the cache MRU keeps some hits
        while LRU gets none — the looping pathology from the paper."""
        loop = list(range(10)) * 20
        lru = hit_rate(LRUPolicy(5), loop)
        mru = hit_rate(MRUPolicy(5), loop)
        assert lru == 0.0
        assert mru > 0.3


class TestFIFO:
    def test_touch_does_not_refresh(self):
        policy = FIFOPolicy(2)
        policy.access("a")
        policy.access("b")
        policy.access("a")  # hit, but position unchanged
        result = policy.access("c")
        assert result.evicted == ["a"]


class TestCLOCK:
    def test_second_chance(self):
        policy = CLOCKPolicy(2)
        policy.access("a")
        policy.access("b")
        policy.access("a")  # sets a's reference bit
        result = policy.access("c")  # sweep: a gets second chance, b evicted
        assert result.evicted == ["b"]

    def test_all_bits_set_falls_back_to_oldest(self):
        policy = CLOCKPolicy(2)
        policy.access("a")
        policy.access("b")
        policy.access("a")
        policy.access("b")
        result = policy.access("c")
        assert result.evicted == ["a"]

    def test_victim_peek_matches_eviction(self):
        policy = CLOCKPolicy(3)
        for block in ["a", "b", "c"]:
            policy.access(block)
        policy.access("b")
        predicted = policy.victim()
        result = policy.access("d")
        assert result.evicted == [predicted]


class TestLFU:
    def test_evicts_least_frequent(self):
        policy = LFUPolicy(2)
        policy.access("a")
        policy.access("a")
        policy.access("b")
        result = policy.access("c")
        assert result.evicted == ["b"]

    def test_tie_broken_by_lru(self):
        policy = LFUPolicy(2)
        policy.access("a")
        policy.access("b")
        # Both frequency 1; a is older.
        result = policy.access("c")
        assert result.evicted == ["a"]

    def test_frequency_accessor(self):
        policy = LFUPolicy(2)
        policy.access("a")
        policy.access("a")
        assert policy.frequency("a") == 2


class TestRandom:
    def test_deterministic_under_seed(self):
        def run(seed):
            policy = RandomPolicy(3, seed=seed)
            return [policy.access(b).evicted for b in [1, 2, 3, 4, 5, 6]]

        assert run(11) == run(11)

    def test_hit_rate_proportional_to_size_on_random_trace(self):
        """Section 2.2: RANDOM's hit rate is ~ cache_size / universe."""
        import random as pyrandom

        universe = 200
        rng = pyrandom.Random(5)
        trace = [rng.randrange(universe) for _ in range(20000)]
        small = hit_rate(RandomPolicy(20, seed=1), trace)
        large = hit_rate(RandomPolicy(100, seed=1), trace)
        assert small == pytest.approx(20 / universe, abs=0.03)
        assert large == pytest.approx(100 / universe, abs=0.05)

    def test_victim_stable_until_eviction(self):
        policy = RandomPolicy(2, seed=0)
        policy.access("a")
        policy.access("b")
        first = policy.victim()
        assert policy.victim() == first


class TestOPT:
    def test_compute_next_use(self):
        assert compute_next_use([1, 2, 1]) == [2, NEVER, NEVER]
        assert compute_next_use([]) == []

    def test_belady_example(self):
        # Classic textbook example.
        trace = [1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5]
        policy = OPTPolicy(3, trace)
        hits = sum(policy.access(b).hit for b in trace)
        # OPT achieves 5 hits on this string with 3 frames (7 faults).
        assert hits == 5

    def test_out_of_order_access_rejected(self):
        policy = OPTPolicy(2, [1, 2, 3])
        policy.access(1)
        with pytest.raises(ProtocolError):
            policy.access(3)

    def test_access_beyond_trace_rejected(self):
        policy = OPTPolicy(2, [1])
        policy.access(1)
        with pytest.raises(ProtocolError):
            policy.access(1)

    @settings(max_examples=40, deadline=None)
    @given(
        trace=st.lists(st.integers(min_value=0, max_value=9), max_size=150),
        capacity=st.integers(min_value=1, max_value=5),
    )
    def test_opt_dominates_online_policies(self, trace, capacity):
        """OPT's hit count is >= LRU's, FIFO's and LFU's on any trace."""
        opt = OPTPolicy(capacity, trace)
        opt_hits = sum(opt.access(b).hit for b in trace)
        for other in (LRUPolicy(capacity), FIFOPolicy(capacity), LFUPolicy(capacity)):
            other_hits = sum(other.access(b).hit for b in trace)
            assert opt_hits >= other_hits


class TestMQ:
    def test_promotion_by_frequency(self):
        policy = MQPolicy(8, life_time=100)
        policy.access("a")
        assert policy.queue_of("a") == 0  # freq 1 -> Q0
        policy.access("a")
        assert policy.queue_of("a") == 1  # freq 2 -> Q1
        policy.access("a")
        assert policy.queue_of("a") == 1  # freq 3 -> Q1
        policy.access("a")
        assert policy.queue_of("a") == 2  # freq 4 -> Q2

    def test_eviction_from_lowest_queue(self):
        policy = MQPolicy(2, life_time=100)
        policy.access("hot")
        policy.access("hot")  # hot in Q1
        policy.access("cold")  # cold in Q0
        result = policy.access("new")
        assert result.evicted == ["cold"]

    def test_ghost_remembers_frequency(self):
        policy = MQPolicy(2, life_time=100)
        policy.access("b")
        policy.access("b")  # b: freq 2, Q1
        policy.access("a")  # a: freq 1, Q0
        result = policy.access("c")  # evicts a from Q0
        assert result.evicted == ["a"]
        assert policy.in_ghost("a")
        policy.access("a")  # ghost hit: remembered freq 1 -> freq 2 -> Q1
        assert policy.queue_of("a") == 1
        assert policy.frequency_of("a") == 2
        assert not policy.in_ghost("a")

    def test_expired_blocks_demote(self):
        policy = MQPolicy(4, life_time=2)
        policy.access("a")
        policy.access("a")  # a in Q1, expires at time 2+2=4
        for block in ["x", "y", "z"]:
            policy.access(block)  # time advances to 5
        assert policy.queue_of("a") == 0  # demoted by Adjust()

    def test_frequency_of(self):
        policy = MQPolicy(4)
        policy.access("a")
        policy.access("a")
        assert policy.frequency_of("a") == 2

    def test_insert_rejects_a_resident_block_and_a_missing_victim(self):
        policy = MQPolicy(2, life_time=100)
        policy.insert("a")
        policy.insert("b")
        with pytest.raises(ProtocolError, match="already resident"):
            policy.insert("a")
        for queue in policy._queues:
            queue.clear()  # the counts say full, but no queue holds a block
        with pytest.raises(ProtocolError, match="no victim"):
            policy.insert("c")

    def test_mq_beats_lru_on_filtered_stream(self):
        """MQ's reason to exist: frequency matters more than recency in a
        second-level stream where recency was absorbed upstream."""
        import random as pyrandom

        rng = pyrandom.Random(9)
        hot = list(range(20))  # frequently re-referenced set
        cold = list(range(100, 1100))  # long tail of one-shot blocks
        trace = []
        for _ in range(12000):
            if rng.random() < 0.4:
                trace.append(rng.choice(hot))
            else:
                trace.append(rng.choice(cold))
        mq = hit_rate(MQPolicy(60, life_time=300), trace)
        lru = hit_rate(LRUPolicy(60), trace)
        assert mq > lru


class ScanningMQ(MQPolicy):
    """MQ whose Adjust() scans every queue head on every reference."""

    def _adjust(self):
        time = self._time
        queues = self._queues
        for index in range(1, self.num_queues):
            queue = queues[index]
            while queue:
                block = next(iter(queue))
                if queue[block] >= time:
                    break
                del queue[block]
                self._queue_index[block] = index - 1
                queues[index - 1][block] = time + self.life_time


def drive_mq_lockstep(capacity, num_queues, life_time, ops):
    """Drive MQ and :class:`ScanningMQ` through ``(op, block)`` pairs
    (op 0 removes a resident block picked by the block id, any other op
    accesses the block) and compare them after every step."""
    kwargs = dict(num_queues=num_queues, life_time=life_time)
    policy = MQPolicy(capacity, **kwargs)
    reference = ScanningMQ(capacity, **kwargs)
    for op, block in ops:
        if op == 0:
            resident = sorted(reference.resident())
            if resident:
                victim = resident[block % len(resident)]
                policy.remove(victim)
                reference.remove(victim)
        else:
            assert policy.access(block) == reference.access(block)
        assert policy.victim() == reference.victim()
        assert list(policy.resident()) == list(reference.resident())
        for resident in reference.resident():
            assert policy.queue_of(resident) == reference.queue_of(resident)
        policy.check_invariants()


class TestMQExpiryBound:
    """Adjust() skips its scan while no block can have expired; the
    skip must never change what MQ does."""

    @settings(max_examples=150, deadline=None)
    @given(
        capacity=st.integers(1, 12),
        num_queues=st.integers(1, 8),
        life_time=st.integers(1, 6),
        ops=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 20)), max_size=300
        ),
    )
    def test_matches_a_scan_on_every_reference(
        self, capacity, num_queues, life_time, ops
    ):
        drive_mq_lockstep(capacity, num_queues, life_time, ops)

    @pytest.mark.parametrize("num_queues", range(1, 9))
    def test_matches_a_scan_through_hot_bursts_and_scans(self, num_queues):
        """Bursts on a few blocks push them into the high queues; the
        scans of one-shot blocks that follow enqueue nothing above
        queue 0, so the hot blocks expire and cascade down through
        queues that have drained."""
        import random as pyrandom

        rng = pyrandom.Random(num_queues)
        fresh = 100
        for life_time in (1, 2, 3, 5, 8):
            ops = []
            for _ in range(20):
                hot = rng.sample(range(10), 3)
                ops.extend((1, rng.choice(hot)) for _ in range(24))
                scan = rng.randrange(4 * life_time + 8)
                ops.extend((1, block) for block in range(fresh, fresh + scan))
                fresh += scan
                ops.append((0, rng.randrange(10)))
            drive_mq_lockstep(8, num_queues, life_time, ops)


class TestLIRS:
    def test_states_and_promotion(self):
        policy = LIRSPolicy(4, hir_fraction=0.25)
        # lir_size = 3, hir_size = 1
        policy.access("a")
        policy.access("b")
        policy.access("c")
        assert policy.state_of("a") == "LIR"
        policy.access("d")  # fills the HIR slot
        assert policy.state_of("d") == "HIRr"
        policy.access("d")  # HIR hit while in stack -> promote to LIR
        assert policy.state_of("d") == "LIR"

    def test_ghost_hit_promotes(self):
        policy = LIRSPolicy(4, hir_fraction=0.25)
        for block in ["a", "b", "c"]:
            policy.access(block)
        policy.access("x")  # HIR resident
        policy.access("y")  # evicts x; x becomes ghost in stack
        assert policy.state_of("x") == "HIRn"
        policy.access("x")  # ghost hit -> LIR
        assert policy.state_of("x") == "LIR"

    def test_capacity_one(self):
        policy = LIRSPolicy(1)
        policy.access("a")
        result = policy.access("b")
        assert result.evicted == ["a"]
        assert "b" in policy

    def test_lirs_beats_lru_on_loop(self):
        """The motivating LIRS result: looping patterns defeat LRU."""
        loop = list(range(12)) * 30
        mixed = []
        for i, block in enumerate(loop):
            mixed.append(block)
            if i % 3 == 0:
                mixed.append(100)  # a hot block keeping reuse alive
        lru = hit_rate(LRUPolicy(8), mixed)
        lirs = hit_rate(LIRSPolicy(8), mixed)
        assert lirs > lru

    def test_invalid_hir_fraction(self):
        with pytest.raises(ConfigurationError):
            LIRSPolicy(4, hir_fraction=0.0)


class TestARC:
    def test_second_hit_moves_to_t2(self):
        policy = ARCPolicy(4)
        policy.access("a")
        assert policy.list_of("a") == "T1"
        policy.access("a")
        assert policy.list_of("a") == "T2"

    def test_ghost_hit_adapts_p(self):
        policy = ARCPolicy(2)
        policy.access("a")
        policy.access("a")  # a -> T2
        policy.access("b")  # b -> T1
        policy.access("c")  # REPLACE evicts b from T1 into ghost B1
        assert policy.list_of("b") == "B1"
        before = policy.p
        policy.access("b")  # B1 ghost hit raises p (favour recency)
        assert policy.p > before
        assert policy.list_of("b") == "T2"

    def test_t1_full_new_block_evicts_without_ghost(self):
        # Case IV(a) with T1 at capacity: the T1 LRU page is deleted
        # outright, not remembered in B1.
        policy = ARCPolicy(2)
        policy.access("a")
        policy.access("b")
        result = policy.access("c")
        assert result.evicted == ["a"]
        assert policy.list_of("a") is None

    def test_scan_resistance(self):
        """A one-shot scan must not flush the frequently-used set."""
        import random as pyrandom

        rng = pyrandom.Random(2)
        hot = list(range(10))
        trace = []
        for i in range(4000):
            trace.append(rng.choice(hot))
            trace.append(1000 + i)  # endless one-shot scan
        arc = hit_rate(ARCPolicy(20), trace)
        lru = hit_rate(LRUPolicy(20), trace)
        assert arc >= lru


class TestRegistry:
    def test_available(self):
        names = available_policies()
        assert "lru" in names and "mq" in names and "opt" not in names

    def test_make_policy(self):
        policy = make_policy("lru", 8)
        assert isinstance(policy, LRUPolicy)
        assert policy.capacity == 8

    def test_make_policy_kwargs(self):
        policy = make_policy("mq", 8, life_time=3)
        assert policy.life_time == 3

    def test_unknown_name(self):
        with pytest.raises(UnknownPolicyError):
            make_policy("belady2000", 4)

    def test_register_custom_and_duplicate(self):
        class Custom(LRUPolicy):
            name = "custom-lru-for-test"

        register_policy(Custom.name, Custom)
        assert isinstance(make_policy(Custom.name, 2), Custom)
        with pytest.raises(UnknownPolicyError):
            register_policy(Custom.name, Custom)
