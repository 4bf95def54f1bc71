"""Behavioural registry conformance: every registered entry must run.

The static half (API001, :func:`repro.checks.check_registries`) verifies
construction, interfaces and display names without driving a trace; here
we complete the contract behaviourally — every registered policy and
scheme is driven through a short deterministic trace under
:class:`InvariantCheckedScheme` with per-reference validation, so every
emitted :class:`AccessEvent` is checked and every structural invariant
holds at every step.
"""

from __future__ import annotations

import pytest

from repro.checks import InvariantCheckedScheme, check_registries
from repro.hierarchy.registry import (
    registry_items as scheme_items,
)
from repro.policies.registry import registry_items as policy_items

#: Short deterministic reference stream (no PRNG needed): every other
#: reference revisits a 5-block hot set (guaranteed hits for any cache
#: of >= 5 blocks), the rest stride over 37 blocks (misses, evictions).
TRACE = [ref % 5 if ref % 2 else (ref * 7) % 37 for ref in range(400)]


def test_api001_clean_on_the_live_registries():
    assert check_registries() == []


@pytest.mark.parametrize("entry", sorted(policy_items()))
def test_policy_drives_a_trace(entry):
    policy = policy_items()[entry](8)
    resident = 0
    for block in TRACE:
        result = policy.access(block)
        assert isinstance(result.hit, bool)
        if not result.hit:
            resident += 1
        resident -= len(result.evicted)
        assert 0 <= resident <= 8
        assert len(policy) == resident


@pytest.mark.parametrize("entry", sorted(scheme_items(multi_client=False)))
def test_single_client_scheme_conforms(entry):
    scheme = InvariantCheckedScheme(
        scheme_items(multi_client=False)[entry]([8, 16]), every=1
    )
    hits = 0
    for block in TRACE:
        event = scheme.access(0, block)
        hits += event.hit
    # The event/structure validators raised on any violation; the trace
    # re-references blocks, so a working cache must produce some hits.
    assert scheme.validations == len(TRACE)
    assert hits > 0


#: Every multi-client entry over one shared server, plus multi-client ULC
#: over two shared tiers under the id of ``ulc-nlevel``, the key the
#: n-tier engine had before it became ``ulc``.
MULTI_CLIENT_CASES = [
    pytest.param(entry, [8, 16], id=entry)
    for entry in sorted(scheme_items(multi_client=True))
] + [pytest.param("ulc", [8, 16, 24], id="ulc-nlevel")]


@pytest.mark.parametrize(("entry", "levels"), MULTI_CLIENT_CASES)
def test_multi_client_scheme_conforms(entry, levels):
    num_clients = 2
    scheme = InvariantCheckedScheme(
        scheme_items(multi_client=True)[entry](levels, num_clients),
        every=1,
    )
    hits = 0
    for ref, block in enumerate(TRACE):
        event = scheme.access(ref % num_clients, block)
        hits += event.hit
    assert scheme.validations == len(TRACE)
    assert hits > 0
