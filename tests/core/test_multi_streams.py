"""The multi-client ULC engine reproduces its pinned event streams.

``tests/data/golden_multi_streams.json`` (see
:mod:`tests.core.golden_multi`) holds the digest of every
:class:`AccessEvent` — hit level, tempLRU service, placement,
demotions and control messages — for the two-level protocol in every
notice mode and for chains of two and three shared tiers.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from tests.core.golden_multi import SCENARIOS, scenario_digests

FIXTURE = (
    Path(__file__).resolve().parent.parent
    / "data"
    / "golden_multi_streams.json"
)


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("scenario", [entry[0] for entry in SCENARIOS])
def test_event_streams_match_fixture(golden, scenario):
    assert scenario_digests(scenario) == golden[scenario]


def test_fixture_covers_every_scenario(golden):
    assert sorted(golden) == sorted(entry[0] for entry in SCENARIOS)
