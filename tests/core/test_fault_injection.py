"""Fault injection: lost eviction notices must not break the protocol.

The paper notes notifications "can be delayed ... without affecting its
correctness"; we go further and *drop* them. A stale level-2 view can
only cause a server miss (served from disk) and some dead metadata — the
client's own re-direction repairs the state. These tests assert the
correctness half and measure the graceful performance degradation,
over one shared server and over a chain of two shared tiers.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ULCMultiSystem
from repro.errors import ConfigurationError
from repro.sim import Engine, paper_three_level, paper_two_level
from repro.hierarchy.ulc import ULCMultiScheme
from repro.workloads import db2_like

REFS = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 20)), max_size=300)
LOSS = st.sampled_from([0.25, 0.5, 1.0])


class TestNoticeLoss:
    """Lost notices over the paper's one shared server."""

    TIERS = 1

    def server(self, capacity):
        """``server_capacity``: tiers of ``capacity``, then double it."""
        sizes = [capacity * 2 ** index for index in range(self.TIERS)]
        return sizes[0] if self.TIERS == 1 else sizes

    def test_invalid_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            ULCMultiSystem(1, 1, self.server(1), notice_loss_rate=1.5)

    def test_zero_rate_is_default_path(self):
        a = ULCMultiSystem(2, 2, self.server(4), templru_capacity=0)
        b = ULCMultiSystem(
            2, 2, self.server(4), templru_capacity=0, notice_loss_rate=0.0
        )
        rng = random.Random(2)
        for _ in range(1000):
            client, block = rng.randrange(2), rng.randrange(20)
            ea, eb = a.access(client, block), b.access(client, block)
            assert (ea.hit_level, ea.placed_level) == (
                eb.hit_level,
                eb.placed_level,
            )

    @settings(max_examples=20, deadline=None)
    @given(refs=REFS, loss=LOSS)
    def test_property_invariants_under_loss(self, refs, loss):
        self.check_invariants_under_loss(refs, loss)

    def check_invariants_under_loss(self, refs, loss):
        """Every structural invariant holds at any loss rate, including
        total loss (no tier ever over-fills and hits are still
        classified consistently)."""
        system = ULCMultiSystem(
            3, client_capacity=2, server_capacity=self.server(4),
            templru_capacity=0, notice_loss_rate=loss, notice_loss_seed=7,
        )
        for client, block in refs:
            event = system.access(client, block)
            assert event.hit_level in (None, *range(1, self.TIERS + 2))
            system.check_invariants()
            for tier in system.tiers:
                assert len(tier) <= tier.capacity

    def test_stale_view_repaired_by_reaccess(self):
        """A block whose eviction notices were lost: the next access
        misses at every tier, falls through, and the metadata is
        re-ranked — no permanent inconsistency."""
        system = ULCMultiSystem(
            2, client_capacity=1,
            server_capacity=1 if self.TIERS == 1 else [1] * self.TIERS,
            templru_capacity=0, notice_loss_rate=1.0,
        )
        system.access(0, 1)
        system.access(0, 2)    # 2 cached at the server (owner 0)
        # Client 1 fills one tier per block: 11 evicts 2 (a chain
        # demotes it, and each further block pushes it one tier down
        # and out). Every notice to client 0 is LOST.
        for block in range(10, 11 + self.TIERS):
            system.access(1, block)
        event = system.access(0, 2)  # stale view -> disk miss, repaired
        assert event.hit_level is None
        system.check_invariants()
        # The re-access re-cached it per the client's direction; a prompt
        # second access now hits somewhere real.
        event = system.access(0, 2)
        assert event.hit_level in (1, 2)

    def test_graceful_degradation_on_workload(self):
        """Hit rates degrade smoothly, not catastrophically, as notices
        are lost (stale directory entries waste some server space)."""
        trace = db2_like(scale=1 / 1024, num_refs=30000)
        if self.TIERS == 1:
            levels, costs = [32, 128], paper_two_level()
        else:
            levels, costs = [32, 64, 128], paper_three_level()
        rates = {}
        for loss in (0.0, 0.5, 1.0):
            scheme = ULCMultiScheme(
                levels,
                trace.num_clients,
                notice_loss_rate=loss,
                notice_loss_seed=3,
            )
            result = Engine(scheme, costs).drive(trace)
            rates[loss] = result.total_hit_rate
        assert rates[1.0] <= rates[0.0] + 0.02
        assert rates[1.0] > 0.5 * rates[0.0]  # graceful, not collapse


class TestNoticeLossOverTwoTiers(TestNoticeLoss):
    """The same faults over a chain of two shared tiers, where a lost
    notice may also hide a demotion into the lower tier."""

    TIERS = 2

    # Hypothesis runs each test function with one executor class, so
    # the property gets a function of its own here.
    @settings(max_examples=20, deadline=None)
    @given(refs=REFS, loss=LOSS)
    def test_property_invariants_under_loss(self, refs, loss):
        self.check_invariants_under_loss(refs, loss)
