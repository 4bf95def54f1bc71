"""Registry coverage: every registered scheme builds and runs."""

from __future__ import annotations

import pytest

from repro.hierarchy import available_schemes, make_scheme
from repro.sim import Engine, paper_three_level, paper_two_level
from repro.workloads import zipf_trace


@pytest.mark.parametrize("name", available_schemes(multi_client=False))
def test_every_single_client_scheme_builds_and_runs(name):
    levels = [8, 16] if name in ("eviction-based",) else [8, 16, 24]
    scheme = make_scheme(name, levels)
    trace = zipf_trace(60, 2000, seed=1)
    costs = paper_two_level() if len(levels) == 2 else paper_three_level()
    result = Engine(scheme, costs).drive(trace)
    assert result.references > 0
    assert 0 <= result.total_hit_rate <= 1


#: Every multi-client key over one shared server, plus multi-client ULC
#: over two shared tiers under the id of ``ulc-nlevel``, the key the
#: n-tier engine had before it became ``ulc``.
MULTI_CLIENT_CASES = [
    pytest.param(name, [8, 16], id=name)
    for name in available_schemes(multi_client=True)
] + [pytest.param("ulc", [8, 16, 24], id="ulc-nlevel")]


@pytest.mark.parametrize(("name", "levels"), MULTI_CLIENT_CASES)
def test_every_multi_client_scheme_builds_and_runs(name, levels):
    scheme = make_scheme(name, levels, num_clients=3)
    trace = zipf_trace(60, 2000, seed=2)
    # Round-robin the three clients over the stream.
    from repro.workloads import Trace

    clients = [i % 3 for i in range(len(trace))]
    trace = Trace(trace.blocks, clients, trace.info)
    costs = paper_two_level() if len(levels) == 2 else paper_three_level()
    result = Engine(scheme, costs).drive(trace)
    assert result.references > 0
    assert result.num_clients == 3


def test_display_names_unique_within_each_registry():
    """No two registry entries may share a display name — RunResult rows
    and figure labels would be indistinguishable otherwise (ULCScheme and
    ULCMultiScheme both used to claim "ULC")."""
    for multi_client in (False, True):
        names = {}
        for key in available_schemes(multi_client=multi_client):
            if multi_client:
                scheme = make_scheme(key, [8, 16], num_clients=3)
            else:
                levels = [8, 16] if key == "eviction-based" else [8, 16, 24]
                scheme = make_scheme(key, levels)
            assert scheme.name not in names, (
                f"display name {scheme.name!r} claimed by both "
                f"{names[scheme.name]!r} and {key!r}"
            )
            names[scheme.name] = key


def test_single_and_multi_ulc_have_distinct_display_names():
    single = make_scheme("ulc", [8, 16, 24])
    multi = make_scheme("ulc", [8, 16], num_clients=2)
    assert single.name == "ULC"
    assert multi.name == "ULC-multi"


def test_registries_expose_expected_names():
    single = set(available_schemes(multi_client=False))
    multi = set(available_schemes(multi_client=True))
    assert {"indlru", "unilru", "ulc", "agglru", "eviction-based"} <= single
    assert {
        "indlru", "unilru", "unilru-lru", "unilru-adaptive", "mq", "ulc",
        "ulc-static", "eviction-based",
    } <= multi
    # One multi-client ULC key serves every number of shared tiers.
    assert "ulc-nlevel" not in multi
