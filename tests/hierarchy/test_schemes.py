"""Tests for the multi-level caching schemes."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ULCClient
from repro.errors import ConfigurationError, ProtocolError, UnknownPolicyError
from repro.hierarchy import (
    AggregateLRUOracle,
    AggregateOPTOracle,
    ClientLRUServerMQ,
    CooperativeScheme,
    EvictionBasedScheme,
    IndependentScheme,
    ULCMultiScheme,
    ULCScheme,
    UnifiedLRUMultiScheme,
    UnifiedLRUScheme,
    available_schemes,
    make_scheme,
)
from repro.policies import LRUPolicy


def run(scheme, refs):
    """refs: iterable of blocks (client 0) or (client, block) pairs."""
    events = []
    for ref in refs:
        if isinstance(ref, tuple):
            events.append(scheme.access(ref[0], ref[1]))
        else:
            events.append(scheme.access(0, ref))
    return events


class TestIndependent:
    def test_read_through_caches_at_all_levels(self):
        scheme = IndependentScheme([2, 4])
        scheme.access(0, "a")
        assert "a" in scheme.resident(0, 1)
        assert "a" in scheme.resident(0, 2)

    def test_hit_levels(self):
        scheme = IndependentScheme([1, 4])
        scheme.access(0, "a")
        scheme.access(0, "b")         # evicts a from L1; a stays in L2
        event = scheme.access(0, "a")
        assert event.hit_level == 2
        event = scheme.access(0, "a")
        assert event.hit_level == 1

    def test_no_demotions_ever(self):
        scheme = IndependentScheme([1, 2])
        events = run(scheme, [1, 2, 3, 1, 2, 3, 1])
        assert all(e.demotions == () for e in events)

    def test_weak_locality_at_second_level(self):
        """The paper's first challenge: the L2 stream is recency-filtered,
        so an L2 of the same size as L1 contributes far fewer hits."""
        import random as pyrandom

        rng = pyrandom.Random(1)
        trace = [rng.randrange(60) for _ in range(8000)]
        scheme = IndependentScheme([20, 20])
        events = run(scheme, trace)
        l1_hits = sum(e.hit_level == 1 for e in events)
        l2_hits = sum(e.hit_level == 2 for e in events)
        assert l2_hits < l1_hits * 0.6

    def test_multi_client_shares_server(self):
        scheme = IndependentScheme([1, 8], num_clients=2)
        scheme.access(0, "x")
        event = scheme.access(1, "x")  # other client finds it at the server
        assert event.hit_level == 2

    def test_policy_count_mismatch(self):
        with pytest.raises(ConfigurationError):
            IndependentScheme([1, 1], policies=["lru"])

    @pytest.mark.parametrize("count", [1, 3])
    def test_policy_kwargs_count_mismatch(self, count):
        with pytest.raises(ConfigurationError, match="policy_kwargs"):
            IndependentScheme(
                [4, 8], policies=["lru", "lru"], policy_kwargs=[{}] * count
            )

    def test_client_bounds(self):
        scheme = IndependentScheme([1, 1], num_clients=2)
        with pytest.raises(ConfigurationError):
            scheme.access(2, "a")


class TestUnifiedLRUSingle:
    def test_matches_aggregate_lru_hit_rate(self):
        """Goal (1) exactly: uniLRU's total hit rate equals one LRU of
        the aggregate size, reference by reference."""
        import random as pyrandom

        rng = pyrandom.Random(7)
        trace = [rng.randrange(40) for _ in range(5000)]
        scheme = UnifiedLRUScheme([5, 7, 4])
        oracle = LRUPolicy(16)
        for block in trace:
            assert scheme.access(0, block).hit == oracle.access(block).hit

    def test_global_order_is_lru_order(self):
        scheme = UnifiedLRUScheme([1, 2])
        run(scheme, [1, 2, 3, 2])
        assert scheme.global_order() == [2, 3, 1]

    def test_hit_level_matches_stack_depth(self):
        scheme = UnifiedLRUScheme([1, 2])
        run(scheme, [1, 2, 3])       # order: 3 | 2 1
        assert scheme.access(0, 3).hit_level == 1
        assert scheme.access(0, 1).hit_level == 2

    def test_demotion_per_boundary_crossing(self):
        scheme = UnifiedLRUScheme([1, 1, 1])
        run(scheme, [1, 2, 3])       # stack: 3 | 2 | 1
        event = scheme.access(0, 1)  # L3 hit -> to top; 3,2 ripple down
        assert event.hit_level == 3
        assert [(d.src, d.dst) for d in event.demotions] == [(1, 2), (2, 3)]

    def test_miss_demotes_on_every_boundary_when_full(self):
        scheme = UnifiedLRUScheme([1, 1])
        run(scheme, [1, 2])
        event = scheme.access(0, 3)
        assert [(d.src, d.dst) for d in event.demotions] == [(1, 2)]
        assert event.evicted == (1,)

    def test_looping_pattern_demotes_on_every_reference(self):
        """The tpcc1 pathology: a loop spanning L1+L2 makes every single
        reference demote across the first boundary (the paper's 100%)."""
        scheme = UnifiedLRUScheme([2, 4])
        loop = list(range(6))
        run(scheme, loop)  # warm
        events = run(scheme, loop * 10)
        boundary1 = sum(e.demotion_count(1) for e in events)
        assert boundary1 == len(events)  # 100% demotion rate
        assert all(e.hit_level == 2 for e in events)  # all L2 hits

    def test_multi_client_rejected(self):
        with pytest.raises(ConfigurationError):
            UnifiedLRUScheme([1, 1], num_clients=2)


def _relocate(block, level):
    return lambda stack: stack.relocate(stack.lookup(block), level)


def _evict(block):
    return lambda stack: stack.evict(stack.lookup(block))


@pytest.mark.parametrize("make_scheme, plant, match, ulc_accepts", [
    # Blocks 1..4 fill ULC's levels in turn: 2 1 | 4 3.
    (lambda: ULCScheme([2, 2]), _relocate(2, 2),
     "level 2 exceeds its capacity", False),
    # uniLRU ripples them down one stack: 4 3 | 2 1.
    (lambda: UnifiedLRUScheme([2, 2]), _relocate(3, 2),
     "level 2 exceeds its capacity", False),
    (lambda: UnifiedLRUScheme([2, 2]), _evict(3), "L_out entry 3", True),
    # Level 2 has room; block 4 moves there above level 1's block 3.
    (lambda: UnifiedLRUScheme([2, 3]), _relocate(4, 2),
     "recency region R_1", True),
], ids=["ulc-overfilled", "unilru-overfilled", "unilru-l-out",
        "unilru-region-above-level"])
def test_planted_violation_raises(make_scheme, plant, match, ulc_accepts):
    """An over-filled level fails both engines' checks with
    ProtocolError; a stack that is not stratified fails uniLRU's,
    though ULC's own checks accept it."""
    scheme = make_scheme()
    run(scheme, [1, 2, 3, 4])
    scheme.check_invariants()
    plant(scheme.engine.stack)
    if ulc_accepts:
        ULCClient.check_invariants(scheme.engine)
    with pytest.raises(ProtocolError, match=match):
        scheme.check_invariants()


def _policy_caches(scheme):
    """The single-level policies a policy-composed scheme holds."""
    if isinstance(scheme, IndependentScheme):
        return scheme._client_caches + scheme._shared
    if isinstance(scheme, (AggregateLRUOracle, AggregateOPTOracle)):
        return [scheme._cache]
    return scheme._clients + [scheme._server]


POLICY_SCHEMES = {
    "indlru": lambda: IndependentScheme([2, 3, 4], 2),
    "indlru-sieve": lambda: IndependentScheme(
        [2, 4], 2, policies=["sieve", "lecar"]
    ),
    "mq": lambda: make_scheme("mq", [4, 8], 2),
    "eviction-based": lambda: EvictionBasedScheme([2, 4], 2),
    "agglru": lambda: AggregateLRUOracle([2, 4]),
    "aggopt": lambda: AggregateOPTOracle([2, 4], list(range(12)) * 2),
    "cooperative": lambda: CooperativeScheme([2, 4], 2, n_chance=1),
}


@pytest.mark.parametrize("name", sorted(POLICY_SCHEMES))
def test_scheme_check_runs_every_policy_check(name, monkeypatch):
    """A checked run validates each cache with its policy's own checks,
    not only its occupancy."""
    scheme = POLICY_SCHEMES[name]()
    for index in range(24):
        scheme.access(index % scheme.num_clients, index % 12)
    checked = []
    for cache in _policy_caches(scheme):
        monkeypatch.setattr(
            cache, "check_invariants",
            lambda cache=cache: checked.append(cache),
        )
    scheme.check_invariants()
    assert [id(c) for c in checked] == [
        id(c) for c in _policy_caches(scheme)
    ]


def test_corrupt_mq_queue_index_fails_the_scheme_check():
    """A queue-index entry pointing at the wrong queue passes every
    occupancy bound but fails MQ's own check, and so the scheme's."""
    scheme = make_scheme("mq", [4, 8], 2)
    for index in range(40):
        scheme.access(index % 2, index % 10)
    scheme.check_invariants()
    server = scheme._shared[0]
    block = next(iter(server.resident()))
    server._queue_index[block] += 1
    with pytest.raises(ProtocolError, match="indexed at queue"):
        scheme.check_invariants()


class TestUnifiedLRUMulti:
    def test_exclusive_promotion(self):
        scheme = UnifiedLRUMultiScheme([1, 4], num_clients=1)
        run(scheme, [1, 2])          # 1 demoted to server when 2 arrives
        event = scheme.access(0, 1)  # server hit; promoted back
        assert event.hit_level == 2
        # Server no longer holds 1 (exclusive), client does.
        event = scheme.access(0, 1)
        assert event.hit_level == 1

    def test_demotion_on_client_eviction(self):
        scheme = UnifiedLRUMultiScheme([1, 4], num_clients=1)
        scheme.access(0, 1)
        event = scheme.access(0, 2)
        assert [(d.src, d.dst) for d in event.demotions] == [(1, 2)]

    def test_lru_insertion_variant(self):
        scheme = UnifiedLRUMultiScheme([1, 2], insertion="lru")
        run(scheme, [1, 2, 3])
        # Demotes entered at the cold end: 1 demoted first, then 2 at the
        # cold end pushes nothing (room), but next demote evicts 2 (at
        # LRU end), not 1... both entered at LRU end: order [1, 2] with 2
        # coldest.
        event = scheme.access(0, 4)
        assert event.evicted == (2,)

    def test_adaptive_variant_runs(self):
        scheme = UnifiedLRUMultiScheme(
            [1, 2], num_clients=2, insertion="adaptive", adaptive_window=10
        )
        import random as pyrandom

        rng = pyrandom.Random(3)
        for _ in range(200):
            scheme.access(rng.randrange(2), rng.randrange(10))

    def test_three_levels_rejected(self):
        with pytest.raises(ConfigurationError):
            UnifiedLRUMultiScheme([1, 1, 1])

    def test_bad_insertion_rejected(self):
        with pytest.raises(ConfigurationError):
            UnifiedLRUMultiScheme([1, 1], insertion="sideways")

    @pytest.mark.parametrize("plant, match", [
        (lambda s: s._clients[1].update(dict.fromkeys(range(100, 103))),
         "client 1 caches 5 blocks, over its capacity 2"),
        (lambda s: s._server.update(dict.fromkeys(range(100, 103))),
         "server caches 7 blocks, over its capacity 4"),
        (lambda s: s._demoted_by.__setitem__(100, 0),
         "demote-owner tag for 100 outlived"),
    ], ids=["client-overfilled", "server-overfilled", "stale-owner-tag"])
    def test_planted_violation_raises(self, plant, match):
        """DEMOTE keeps its caches as plain dicts, so its own check
        bounds every cache's occupancy and the demote-owner tags."""
        scheme = UnifiedLRUMultiScheme([2, 4], 2)
        for index in range(24):
            scheme.access(index % 2, index % 12)
        scheme.check_invariants()
        plant(scheme)
        with pytest.raises(ProtocolError, match=match):
            scheme.check_invariants()

    @pytest.mark.parametrize("window", [0, -1, 1.5, True])
    def test_bad_adaptive_window_rejected(self, window):
        with pytest.raises(ConfigurationError, match="adaptive_window"):
            UnifiedLRUMultiScheme(
                [4, 8], 2, insertion="adaptive", adaptive_window=window
            )


class TestMQScheme:
    def test_structure(self):
        scheme = ClientLRUServerMQ([2, 8], num_clients=2)
        scheme.access(0, "a")
        assert scheme.access(1, "a").hit_level == 2

    def test_three_levels_rejected(self):
        with pytest.raises(ConfigurationError):
            ClientLRUServerMQ([1, 1, 1])

    def test_mq_parameters_forwarded(self):
        scheme = ClientLRUServerMQ([1, 4], life_time=7, num_queues=4)
        shared = scheme._shared[0]
        assert shared.life_time == 7
        assert shared.num_queues == 4


class TestULCSchemes:
    def test_single_client_adapter(self):
        scheme = ULCScheme([1, 2], templru_capacity=0)
        events = run(scheme, [1, 2, 3, 1])
        assert events[0].placed_level == 1
        assert events[3].hit

    def test_multi_client_adapter(self):
        scheme = ULCMultiScheme([1, 4], num_clients=2, templru_capacity=0)
        scheme.access(0, 1)
        scheme.access(1, 2)
        assert scheme.access(0, 1).hit_level == 1

    def test_single_rejects_multi(self):
        with pytest.raises(ConfigurationError):
            ULCScheme([1, 2], num_clients=2)

    def test_multi_needs_a_shared_tier(self):
        with pytest.raises(ConfigurationError):
            ULCMultiScheme([1])
        # Any chain of shared tiers below the client cache is accepted.
        assert len(ULCMultiScheme([1, 1, 1]).system.tiers) == 2


class TestOracles:
    def test_aggregate_lru(self):
        oracle = AggregateLRUOracle([2, 2])
        events = run(oracle, [1, 2, 3, 4, 1])
        assert events[4].hit_level == 1  # 4 blocks fit the aggregate

    def test_aggregate_opt_dominates_lru(self):
        import random as pyrandom

        rng = pyrandom.Random(11)
        trace = [rng.randrange(30) for _ in range(3000)]
        lru_hits = sum(
            AggregateLRUOracle([4, 4]).access(0, b).hit for b in []
        )
        lru = AggregateLRUOracle([4, 4])
        opt = AggregateOPTOracle([4, 4], trace)
        lru_hits = sum(lru.access(0, b).hit for b in trace)
        opt_hits = sum(opt.access(0, b).hit for b in trace)
        assert opt_hits >= lru_hits


class TestULCGoals:
    """The three stated goals of the ULC protocol (paper Section 1)."""

    def _hit_rates(self, scheme, trace):
        events = [scheme.access(0, b) for b in trace]
        hits = sum(e.hit for e in events)
        demotions = sum(len(e.demotions) for e in events)
        return hits / len(trace), demotions / len(trace)

    def test_goal1_aggregate_hit_rate_on_lru_friendly_workload(self):
        """ULC's total hit rate tracks a single aggregate-size cache on a
        temporally-clustered workload (within a small tolerance; ULC
        declines to cache never-reused blocks, which costs nothing on a
        reuse-heavy stream)."""
        from repro.workloads import temporal_trace

        trace = temporal_trace(300, 12000, mean_depth=40, seed=5).blocks.tolist()
        ulc_rate, _ = self._hit_rates(ULCScheme([40, 40, 40]), trace)
        agg_rate, _ = self._hit_rates(AggregateLRUOracle([40, 40, 40]), trace)
        assert ulc_rate >= agg_rate - 0.05

    def test_goal2_hits_concentrate_at_high_levels(self):
        """Locality ranking: on a zipf workload most ULC hits come from
        level 1, unlike indLRU where redundancy wastes the lower levels."""
        from repro.workloads import zipf_trace

        trace = zipf_trace(500, 15000, seed=6).blocks.tolist()
        scheme = ULCScheme([30, 30, 30], templru_capacity=0)
        events = [scheme.access(0, b) for b in trace]
        l1 = sum(e.hit_level == 1 for e in events)
        l2 = sum(e.hit_level == 2 for e in events)
        l3 = sum(e.hit_level == 3 for e in events)
        assert l1 > l2 > l3

    def test_goal3_fewer_demotions_than_unilru_on_loop(self):
        """Communication: on a looping workload ULC's demotion rate is a
        tiny fraction of uniLRU's (the Figure-6 tpcc1 story)."""
        loop = list(range(50)) * 40
        _, ulc_demotion_rate = self._hit_rates(
            ULCScheme([10, 60], templru_capacity=0), loop
        )
        _, uni_demotion_rate = self._hit_rates(UnifiedLRUScheme([10, 60]), loop)
        assert uni_demotion_rate > 0.9
        assert ulc_demotion_rate < 0.2 * uni_demotion_rate

    def test_unilru_vs_ulc_hit_rates_comparable_on_loop(self):
        loop = list(range(50)) * 40
        ulc_rate, _ = self._hit_rates(ULCScheme([10, 60], templru_capacity=0), loop)
        uni_rate, _ = self._hit_rates(UnifiedLRUScheme([10, 60]), loop)
        assert ulc_rate >= uni_rate - 0.05


class TestRegistry:
    def test_available(self):
        assert "ulc" in available_schemes()
        assert "mq" in available_schemes(multi_client=True)
        assert "mq" not in available_schemes(multi_client=False)

    def test_make_single(self):
        scheme = make_scheme("unilru", [2, 2])
        assert isinstance(scheme, UnifiedLRUScheme)

    def test_make_multi(self):
        scheme = make_scheme("unilru", [2, 2], num_clients=3)
        assert isinstance(scheme, UnifiedLRUMultiScheme)
        scheme = make_scheme("unilru-adaptive", [2, 2], num_clients=3)
        assert scheme.insertion == "adaptive"

    def test_unknown(self):
        with pytest.raises(UnknownPolicyError):
            make_scheme("psychic", [1])


@settings(max_examples=30, deadline=None)
@given(
    refs=st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, 20)), max_size=200
    )
)
@pytest.mark.parametrize(
    "name", ["indlru", "unilru", "unilru-lru", "unilru-adaptive", "mq", "ulc"]
)
def test_property_all_multi_schemes_stay_consistent(name, refs):
    """Every scheme survives arbitrary 2-client traffic with sane events."""
    scheme = make_scheme(name, [2, 4], num_clients=2)
    for client, block in refs:
        event = scheme.access(client, block)
        assert event.client == client
        assert event.hit_level in (None, 1, 2)
        for demotion in event.demotions:
            assert 1 <= demotion.src <= 2
