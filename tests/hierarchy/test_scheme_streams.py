"""The schemes built from LRU-family policies reproduce their pinned
event streams.

``tests/data/golden_scheme_streams.json`` (see
:mod:`tests.hierarchy.golden_schemes`) holds the digest of every
:class:`AccessEvent` of indLRU, client-LRU + server-MQ, the three
DEMOTE variants, eviction-based placement, aggregate LRU and
cooperative caching, with one and with several clients, on random,
zipf, loop and scan-storm traces.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from tests.hierarchy.golden_schemes import CASES, case_digests

FIXTURE = (
    Path(__file__).resolve().parent.parent
    / "data"
    / "golden_scheme_streams.json"
)


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_event_streams_match_fixture(golden, case):
    assert case_digests(case) == golden[case]


def test_fixture_covers_every_scenario(golden):
    assert sorted(golden) == sorted(CASES)
