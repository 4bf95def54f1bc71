"""uniLRU reproduces its pinned single-client event streams.

``tests/data/golden_unilru_streams.json`` (see
:mod:`tests.core.golden_unilru`) holds the digest of every
:class:`AccessEvent` of ``UnifiedLRUScheme`` and of its final aggregate
stack, at one to four levels, on random, zipf, loop and scan-storm
traces.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from tests.core.golden_unilru import HIERARCHIES, hierarchy_digests, hierarchy_key

FIXTURE = (
    Path(__file__).resolve().parent.parent
    / "data"
    / "golden_unilru_streams.json"
)

KEYS = [hierarchy_key(capacities) for capacities in HIERARCHIES]


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("hierarchy", KEYS)
def test_event_streams_match_fixture(golden, hierarchy):
    assert hierarchy_digests(hierarchy) == golden[hierarchy]


def test_fixture_covers_every_hierarchy(golden):
    assert sorted(golden) == sorted(KEYS)
