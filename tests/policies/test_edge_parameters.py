"""Edge-parameter tests for the configurable policies."""

from __future__ import annotations

import math
import random

import pytest

from repro.errors import ConfigurationError
from repro.policies import (
    LeCaRPolicy,
    LIRSPolicy,
    MQPolicy,
    OPTPolicy,
    S3FIFOPolicy,
    TwoQPolicy,
)

NAN = float("nan")
INF = float("inf")

#: Parameters each policy must refuse at construction, before the first
#: reference: out of range, not a number, or infinite.
BAD_PARAMETERS = [
    (S3FIFOPolicy, "ghost_factor", 0),
    (S3FIFOPolicy, "ghost_factor", -1.0),
    (S3FIFOPolicy, "ghost_factor", NAN),
    (S3FIFOPolicy, "ghost_factor", INF),
    (LeCaRPolicy, "learning_rate", 0),
    (LeCaRPolicy, "learning_rate", NAN),
    (LeCaRPolicy, "learning_rate", INF),
    (LeCaRPolicy, "discount_base", 0),
    (LeCaRPolicy, "discount_base", 1.5),
    (LeCaRPolicy, "discount_base", NAN),
    (LeCaRPolicy, "history_factor", NAN),
    (LeCaRPolicy, "history_factor", INF),
    (LIRSPolicy, "hir_fraction", 0.0),
    (LIRSPolicy, "hir_fraction", 1.0),
    (LIRSPolicy, "hir_fraction", NAN),
    (LIRSPolicy, "ghost_factor", INF),
]


@pytest.mark.parametrize(
    "policy, name, value",
    [
        pytest.param(*case, id=f"{case[0].name}-{case[1]}={case[2]}")
        for case in BAD_PARAMETERS
    ],
)
def test_bad_parameter_is_a_configuration_error(policy, name, value):
    with pytest.raises(ConfigurationError, match=name):
        policy(8, **{name: value})


class TestMQParameters:
    def test_single_queue_degenerates_gracefully(self):
        policy = MQPolicy(4, num_queues=1, life_time=10)
        for block in [1, 2, 1, 1, 3, 4, 5]:
            policy.access(block)
        assert len(policy) <= 4
        assert policy.queue_of(1) == 0  # only queue 0 exists

    def test_ghost_disabled(self):
        policy = MQPolicy(2, ghost_capacity=0, life_time=10)
        policy.access("a")
        policy.access("b")
        policy.access("c")  # evicts a; no ghost remembered
        assert not policy.in_ghost("a")
        policy.access("a")
        assert policy.frequency_of("a") == 1  # no remembered frequency

    def test_tiny_ghost_evicts_fifo(self):
        policy = MQPolicy(1, ghost_capacity=1, life_time=10)
        policy.access("a")
        policy.access("b")  # a -> ghost
        policy.access("c")  # b -> ghost, a forgotten (capacity 1)
        assert not policy.in_ghost("a")
        assert policy.in_ghost("b")

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            MQPolicy(4, num_queues=0)
        with pytest.raises(ConfigurationError):
            MQPolicy(4, life_time=0)
        with pytest.raises(ConfigurationError):
            MQPolicy(4, ghost_capacity=-1)

    def test_frequency_caps_at_top_queue(self):
        policy = MQPolicy(8, num_queues=2, life_time=100)
        for _ in range(40):
            policy.access("hot")
        assert policy.queue_of("hot") == 1  # clamped to m-1


class TestLeCaRParameters:
    @pytest.mark.parametrize(
        "capacity, learning_rate", [(4, 1e4), (8, 1e4), (2, 1e6)]
    )
    def test_huge_learning_rate_keeps_weights_finite(
        self, capacity, learning_rate
    ):
        """A finite learning rate whose penalties underflow to 0.0 once
        zeroed both expert weights and divided by zero (at the 27th,
        54th and 9th reference here)."""
        policy = LeCaRPolicy(capacity, learning_rate=learning_rate)
        rng = random.Random(0)
        for _ in range(500):
            policy.access(rng.randrange(12))
            policy.check_invariants()
        weights = policy.weights
        assert all(math.isfinite(weight) and weight > 0 for weight in weights)
        assert math.isclose(sum(weights), 1.0)


class TestTwoQParameters:
    def test_fraction_validation(self):
        with pytest.raises(ConfigurationError):
            TwoQPolicy(8, kin_fraction=1.5)
        with pytest.raises(ConfigurationError):
            TwoQPolicy(8, kout_fraction=-0.1)

    def test_capacity_one(self):
        policy = TwoQPolicy(1)
        policy.access("a")
        result = policy.access("b")
        assert result.evicted == ["a"]
        assert "b" in policy


class TestLIRSParameters:
    def test_ghost_budget_enforced(self):
        policy = LIRSPolicy(4, hir_fraction=0.25, ghost_factor=1.0)
        # Flood with one-shot blocks to generate ghosts.
        for block in range(50):
            policy.access(block)
        ghosts = sum(
            1 for b in range(50) if policy.state_of(b) == "HIRn"
        )
        assert ghosts <= policy.ghost_limit

    def test_invalid_ghost_factor(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            LIRSPolicy(4, ghost_factor=0)


class TestOPTEdges:
    def test_remove_and_reinsert_in_order(self):
        trace = [1, 2, 1, 2]
        policy = OPTPolicy(2, trace)
        policy.access(1)
        policy.remove(1)
        assert 1 not in policy
        policy.access(2)
        # Re-access of 1 (position 2 in the trace) reinserts it.
        result = policy.access(1)
        assert not result.hit
        assert policy.access(2).hit

    def test_clock_property(self):
        policy = OPTPolicy(2, [5, 6])
        assert policy.clock == 0
        policy.access(5)
        assert policy.clock == 1

    def test_next_use_of(self):
        policy = OPTPolicy(2, [1, 2, 1])
        policy.access(1)
        assert policy.next_use_of(1) == 2
        policy.access(2)
        from repro.policies import NEVER

        assert policy.next_use_of(2) == NEVER
