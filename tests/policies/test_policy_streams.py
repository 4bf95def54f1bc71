"""LRU, MRU, FIFO, CLOCK, SIEVE, ARC, 2Q, LFU, LIRS, S3-FIFO, W-TinyLFU,
LeCaR and MQ reproduce their pinned event streams.

``tests/data/golden_policy_streams.json`` (see
:mod:`tests.policies.golden_policies`) holds the digest of every
``(AccessResult, victim())`` step and of the final resident list of
each policy at capacities 1 to 128, under seeded removals, on random,
zipf, loop and scan-storm traces, with default parameters and, for the
last four, one non-default parameter set.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from tests.policies.golden_policies import CASES, policy_digests

FIXTURE = (
    Path(__file__).resolve().parent.parent
    / "data"
    / "golden_policy_streams.json"
)


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("policy", sorted(CASES))
def test_event_streams_match_fixture(golden, policy):
    assert policy_digests(policy) == golden[policy]


def test_fixture_covers_every_policy(golden):
    assert sorted(golden) == sorted(CASES)
