"""Both ULC engines reproduce their pinned tempLRU event streams.

``tests/data/golden_templru_streams.json`` (see
:mod:`tests.core.golden_templru`) holds the digest of every
:class:`AccessEvent` of the single-client engine and the multi-client
system on traces that push blocks in and out of tempLRUs of 1, 2, 3 and
16 blocks, with the count of tempLRU hits per stream.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from tests.core.golden_templru import scenario_digests, scenario_names

FIXTURE = (
    Path(__file__).resolve().parent.parent
    / "data"
    / "golden_templru_streams.json"
)


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("scenario", scenario_names())
def test_event_streams_match_fixture(golden, scenario):
    assert scenario_digests(scenario) == golden[scenario]


def test_fixture_covers_every_scenario(golden):
    assert sorted(golden) == sorted(scenario_names())


def test_every_scenario_serves_from_the_templru(golden):
    for scenario, streams in golden.items():
        assert sum(s["temp_hits"] for s in streams.values()) >= 100, scenario
