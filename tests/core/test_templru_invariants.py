"""The tempLRU invariants both ULC engines check.

The first branch of ``ULCClient.access`` and ``ULCMultiClient.access``
serves a level-1 block without looking at the tempLRU; that is exact
only because a level-1 block is never in the tempLRU. Both engines'
``check_invariants`` raise when it is, or when the tempLRU outgrows its
capacity; the property tests check both after every access.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    NOTIFY_IMMEDIATE,
    NOTIFY_PIGGYBACK,
    ULCClient,
    ULCMultiSystem,
)
from repro.errors import ConfigurationError, ProtocolError


def _single_engine():
    engine = ULCClient([2, 2], templru_capacity=2)
    for block in (1, 2, 3, 4, 5, 6):
        engine.access(block)
    engine.check_invariants()
    return engine


def _multi_engine():
    system = ULCMultiSystem(2, 2, 4, templru_capacity=2)
    for block in (1, 2, 3, 4, 5, 6, 7, 8):
        system.access(0, block)
    system.check_invariants()
    return system, system.clients[0]


@pytest.mark.parametrize("engine_kind", ["single", "multi"])
@pytest.mark.parametrize("violation", ["level-1 block", "over capacity"])
def test_planted_violation_raises(engine_kind, violation):
    if engine_kind == "single":
        engine = _single_engine()
        checked = engine
    else:
        checked, engine = _multi_engine()
    temp = engine._temp
    assert temp, "the warm-up should leave blocks in the tempLRU"
    if violation == "level-1 block":
        temp.popitem()
        temp[engine.stack.level_blocks(1)[0]] = None
        match = "level-1 block"
    else:
        for block in range(100, 100 + engine.templru_capacity + 1):
            temp[block] = None
        match = "tempLRU holds"
    with pytest.raises(ProtocolError, match=match):
        checked.check_invariants()


@pytest.mark.parametrize("capacity", [-1, 2.5, True])
def test_multi_client_rejects_bad_templru_capacity(capacity):
    with pytest.raises(ConfigurationError):
        ULCMultiSystem(2, 2, 4, templru_capacity=capacity)


levels = st.lists(st.integers(1, 4), min_size=1, max_size=3)
refs = st.lists(st.integers(0, 12), min_size=1, max_size=200)


@settings(max_examples=80, deadline=None)
@given(capacities=levels, templru=st.integers(0, 3), blocks=refs)
def test_single_client_invariants_after_every_access(
    capacities, templru, blocks
):
    engine = ULCClient(capacities, templru_capacity=templru)
    for block in blocks:
        engine.access(block)
        engine.check_invariants()


@settings(max_examples=80, deadline=None)
@given(
    client_capacity=st.integers(1, 4),
    tiers=st.lists(st.integers(1, 4), min_size=1, max_size=2),
    templru=st.integers(0, 3),
    num_clients=st.integers(1, 3),
    notify=st.sampled_from([NOTIFY_PIGGYBACK, NOTIFY_IMMEDIATE]),
    trace=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 12)),
        min_size=1, max_size=200,
    ),
)
def test_multi_client_invariants_after_every_access(
    client_capacity, tiers, templru, num_clients, notify, trace
):
    system = ULCMultiSystem(
        num_clients, client_capacity, tiers,
        templru_capacity=templru, notify=notify,
    )
    for client, block in trace:
        system.access(client % num_clients, block)
        system.check_invariants()
