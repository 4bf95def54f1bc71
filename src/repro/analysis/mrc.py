"""Exact single-pass miss-ratio curves (Mattson stack-distance profiling).

Every LRU-family cache obeys the *inclusion property*: the content of an
LRU cache of capacity ``C`` is the top-``C`` prefix of one global
recency stack, so a reference hits iff its *stack distance* (the number
of distinct blocks touched since its previous reference, itself
included) is at most ``C``. One pass over the trace therefore yields the
hit rate at **every** capacity simultaneously — the classic Mattson
construction surveyed in "A Survey of Miss-Ratio Curve Construction
Techniques" (arXiv:1804.01972). This module computes that profile
exactly, in O(n log n) from the paper's R
(:func:`repro.core.measures.recencies_at_access`), and derives from it:

- :func:`mrc_for_trace` — the full hit-rate-vs-capacity curve of one
  LRU cache over a trace, warm-up handled exactly as
  :meth:`repro.sim.engine.Engine.drive` handles it;
- :func:`che_mrc` — the approximate Che/Fagin closed-form estimator
  (characteristic-time approximation) from empirical block
  popularities, used to cross-validate the exact curve on power-law
  (``zipf``) workloads;
- :func:`derive_sweep_results` — full :class:`~repro.sim.results.RunResult`
  rows for a ``sweep_server_size``-style capacity sweep of the LRU-family
  hierarchy schemes (``unilru``, ``indlru``), **bit-identical** to
  per-capacity :meth:`~repro.sim.engine.Engine.drive` runs: hit
  levels, demotion and eviction counts are all reconstructed from the
  stack-distance profile (see the scheme notes below).

Scheme notes
------------

``uniLRU`` (single-client) *is* one aggregate LRU stack chopped into
per-level segments: a reference with stack distance ``d`` hits level
``k`` iff ``prefix(k-1) < d <= prefix(k)`` (``prefix(k)`` = sum of the
top-``k`` capacities). A demotion crosses boundary ``k`` iff the block
was not in levels ``1..k`` (``d > prefix(k)``) *and* those levels were
full (at least ``prefix(k)`` distinct blocks seen so far); an eviction
happens on a miss once the whole hierarchy is full.

``indLRU`` (single-client) runs independent inclusive LRUs: level 1 is
plain LRU over the full stream, and level ``k`` is plain LRU over the
stream of references that missed levels ``1..k-1``. Because a sweep
holds the upper capacities fixed, the filtered stream is fixed too, and
one profile of it yields the whole lower-level curve. indLRU issues no
demotions and reports no evictions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.measures import NO_VALUE, recencies_at_access
from repro.errors import ConfigurationError
from repro.sim.costs import CostModel
from repro.sim.engine import DEFAULT_WARMUP, result_from_metrics
from repro.sim.metrics import MetricsCollector
from repro.sim.results import RunResult
from repro.util.validation import check_fraction, check_positive
from repro.workloads.base import Trace

#: Stack distance reported for a block's first reference ("infinite" —
#: larger than any realisable capacity, so ``distance <= C`` is False
#: for every C while staying an ordinary int64 for vectorised compares).
COLD_DISTANCE = np.int64(2**62)

#: Hierarchy schemes whose sweeps this module can derive analytically.
MRC_SCHEMES = ("unilru", "indlru")


# ---------------------------------------------------------------------------
# Stack-distance profiling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StackDistanceProfile:
    """Per-reference LRU stack distances of one reference stream.

    Attributes:
        distances: int64 per-reference stack distance (1 = re-reference
            of the most recent block), :data:`COLD_DISTANCE` for first
            references.
        distinct_before: int64 per-reference count of distinct blocks
            referenced strictly before this position (non-decreasing).
        num_unique: total distinct blocks in the stream.
    """

    distances: np.ndarray
    distinct_before: np.ndarray
    num_unique: int

    def __len__(self) -> int:
        return len(self.distances)

    def hits_within(self, capacity: int, start: int = 0) -> int:
        """References at ``>= start`` with stack distance ``<= capacity``
        — exactly the hits of an LRU cache of that capacity, counted over
        the measured region when ``start`` is the warm-up count."""
        if capacity <= 0:
            return 0
        tail = self.distances[start:]
        return int(np.count_nonzero(tail <= capacity))

    def full_stack_since(self, capacity: int) -> int:
        """First position at which ``capacity`` distinct blocks have
        been seen (``len(self)`` when the stream never gets there) — the
        moment an aggregate stack of that size becomes full."""
        return int(
            np.searchsorted(self.distinct_before, capacity, side="left")
        )

    def overflow_count(self, capacity: int, start: int = 0) -> int:
        """References at ``>= start`` that push a block across the
        ``capacity`` boundary of the aggregate stack: stack distance
        beyond ``capacity`` (cold misses included) while at least
        ``capacity`` distinct blocks are already below it."""
        if capacity <= 0:
            return 0
        begin = max(start, self.full_stack_since(capacity))
        tail = self.distances[begin:]
        return int(np.count_nonzero(tail > capacity))


def stack_distances(blocks: Sequence[int]) -> StackDistanceProfile:
    """Exact Mattson stack distances of ``blocks`` in one O(n log n) pass.

    The stack distance of a re-reference is its recency R (the blocks
    touched since its previous reference, from
    :func:`~repro.core.measures.recencies_at_access`) plus one for the
    block itself; a first reference is cold, and the cold references
    before a position count the distinct blocks seen so far.
    """
    recencies = recencies_at_access(np.asarray(blocks, dtype=np.int64))
    cold = recencies == NO_VALUE
    distances = np.where(cold, COLD_DISTANCE, recencies + 1)
    distinct = np.cumsum(cold, dtype=np.int64) - cold
    distances.setflags(write=False)
    distinct.setflags(write=False)
    return StackDistanceProfile(
        distances=distances,
        distinct_before=distinct,
        num_unique=int(np.count_nonzero(cold)),
    )


# ---------------------------------------------------------------------------
# Miss-ratio curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MissRatioCurve:
    """Hit rate as a function of LRU capacity, from one profiling pass.

    ``capacities[i]`` blocks of LRU cache achieve ``hit_rates[i]`` over
    the measured (post-warm-up) region of the trace.
    """

    capacities: Tuple[int, ...]
    hit_rates: Tuple[float, ...]
    references: int
    warmup_references: int
    num_unique_blocks: int

    def hit_rate(self, capacity: int) -> float:
        """Hit rate at one of the curve's capacity points."""
        try:
            return self.hit_rates[self.capacities.index(capacity)]
        except ValueError:
            raise ConfigurationError(
                f"capacity {capacity} is not a point of this curve"
            ) from None

    def miss_ratio(self, capacity: int) -> float:
        return 1.0 - self.hit_rate(capacity)

    @property
    def miss_ratios(self) -> Tuple[float, ...]:
        return tuple(1.0 - rate for rate in self.hit_rates)


def _curve_capacities(
    capacities: Optional[Sequence[int]], num_unique: int
) -> List[int]:
    if capacities is None:
        return list(range(1, max(1, num_unique) + 1))
    out = []
    for capacity in capacities:
        check_positive("capacity", int(capacity))
        out.append(int(capacity))
    return out


def mrc_for_trace(
    trace: Trace,
    warmup_fraction: float = DEFAULT_WARMUP,
    capacities: Optional[Sequence[int]] = None,
) -> MissRatioCurve:
    """The exact LRU miss-ratio curve of ``trace`` in one profiling pass.

    The first ``warmup_fraction`` of references warms the conceptual
    stack but is excluded from the rates — the same split, computed the
    same way, as :meth:`repro.sim.engine.Engine.drive`. With
    ``capacities`` omitted the curve covers every capacity from 1 to the
    trace's distinct-block count (beyond which it is flat: compulsory
    misses never disappear).

    The per-capacity hit rates equal, exactly, what a per-capacity LRU
    simulation of the same trace measures; see
    ``tests/analysis/test_mrc.py`` for the equivalence suite.
    """
    check_fraction("warmup_fraction", warmup_fraction)
    profile = stack_distances(trace.blocks)
    warmup_count = int(len(trace) * warmup_fraction)
    references = len(trace) - warmup_count
    points = _curve_capacities(capacities, profile.num_unique)

    # Histogram of measured finite distances -> cumulative hit counts,
    # so evaluating the whole curve is one bincount + one cumsum.
    measured = profile.distances[warmup_count:]
    finite = measured[measured != COLD_DISTANCE]
    top = profile.num_unique
    hist = np.bincount(
        np.minimum(finite, top).astype(np.int64), minlength=top + 1
    )
    cumulative = np.cumsum(hist)
    rates = []
    for capacity in points:
        hits = int(cumulative[min(capacity, top)]) if capacity > 0 else 0
        rates.append(hits / references if references else 0.0)
    return MissRatioCurve(
        capacities=tuple(points),
        hit_rates=tuple(rates),
        references=references,
        warmup_references=warmup_count,
        num_unique_blocks=profile.num_unique,
    )


# ---------------------------------------------------------------------------
# Che/Fagin closed-form approximation
# ---------------------------------------------------------------------------


def empirical_popularities(trace: Trace) -> np.ndarray:
    """Per-block reference probabilities observed in ``trace``."""
    if len(trace) == 0:
        return np.zeros(0, dtype=np.float64)
    counts = np.bincount(trace.preprocess().dense_ids)
    return counts / float(len(trace))


def che_characteristic_time(
    popularities: np.ndarray, capacity: int, tolerance: float = 1e-10
) -> float:
    """Solve ``sum_i (1 - exp(-p_i * t)) == capacity`` for ``t``.

    The *characteristic time* of Che's approximation: the time horizon
    within which a block must be re-referenced to still be cached. The
    left side is increasing in ``t``, so plain bisection converges; a
    capacity at or beyond the distinct-block count has no finite
    solution and returns ``inf``.
    """
    check_positive("capacity", capacity)
    p = np.asarray(popularities, dtype=np.float64)
    p = p[p > 0]
    if capacity >= len(p):
        return float("inf")
    lo, hi = 0.0, 1.0
    occupancy = lambda t: float(np.sum(-np.expm1(-p * t)))  # noqa: E731
    while occupancy(hi) < capacity:
        hi *= 2.0
        if hi > 1e18:  # pragma: no cover - degenerate popularity vectors
            return float("inf")
    while hi - lo > tolerance * max(1.0, hi):
        mid = (lo + hi) / 2.0
        if occupancy(mid) < capacity:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def che_mrc(
    trace: Trace,
    capacities: Sequence[int],
    warmup_fraction: float = DEFAULT_WARMUP,
) -> MissRatioCurve:
    """Approximate LRU miss-ratio curve via Che's approximation.

    Under the independent-reference model with popularity ``p_i``, the
    LRU hit rate at capacity ``C`` is ``sum_i p_i * (1 - exp(-p_i *
    t_C))`` with ``t_C`` the :func:`characteristic time
    <che_characteristic_time>` — asymptotically exact for power-law
    popularities (Berthet, "Approximation of LRU Caches Miss Rate",
    arXiv:1705.10738). Popularities are taken empirically from the
    trace, so the estimator needs no distribution parameters; it
    cross-validates the exact :func:`mrc_for_trace` curve on the
    ``zipf`` generators (loosely — it is an approximation, and real
    traces are not IRM).
    """
    check_fraction("warmup_fraction", warmup_fraction)
    p = empirical_popularities(trace)
    p = p[p > 0]
    warmup_count = int(len(trace) * warmup_fraction)
    rates = []
    for capacity in capacities:
        check_positive("capacity", int(capacity))
        if capacity >= len(p):
            rates.append(float(np.sum(p)))
            continue
        t_c = che_characteristic_time(p, int(capacity))
        rates.append(float(np.sum(p * -np.expm1(-p * t_c))))
    return MissRatioCurve(
        capacities=tuple(int(c) for c in capacities),
        hit_rates=tuple(rates),
        references=len(trace) - warmup_count,
        warmup_references=warmup_count,
        num_unique_blocks=int(len(p)),
    )


# ---------------------------------------------------------------------------
# Scheme-aware sweep derivation
# ---------------------------------------------------------------------------


def supports_scheme(
    scheme: str,
    scheme_kwargs: Optional[Dict[str, object]] = None,
    num_clients: int = 1,
) -> bool:
    """Whether a hierarchy scheme's capacity sweep is MRC-derivable.

    True for the single-client LRU-family schemes: ``unilru`` (one
    aggregate stack) and ``indlru`` with LRU at every level. Multi-client
    structures, non-LRU per-level policies and the adaptive protocols
    (ULC, MQ, eviction-based ...) are not stack algorithms level by
    level, so sweeps over them fall back to point simulation.
    """
    if num_clients != 1:
        return False
    kwargs = dict(scheme_kwargs or {})
    name = scheme.lower()
    if name == "unilru":
        return not kwargs
    if name != "indlru":
        return False
    policies = kwargs.pop("policies", None)
    policy_kwargs = kwargs.pop("policy_kwargs", None)
    if kwargs:
        return False
    if policies is not None and any(p != "lru" for p in policies):
        return False
    if policy_kwargs is not None and any(dict(k) for k in policy_kwargs):
        return False
    return True


def _fill_collector(
    num_levels: int,
    references: int,
    level_hits: Sequence[int],
    boundary_demotions: Sequence[int],
    evictions: int,
) -> MetricsCollector:
    """A :class:`MetricsCollector` with the given post-warm-up counters,
    as if the corresponding event stream had been recorded."""
    metrics = MetricsCollector(num_levels, num_clients=1)
    metrics.references = references
    metrics.level_hits = list(level_hits)
    metrics.misses = references - sum(level_hits)
    metrics.boundary_demotions = list(boundary_demotions) + [0]
    metrics.evictions = evictions
    metrics.per_client_refs = [references]
    metrics.per_client_misses = [metrics.misses]
    metrics.per_client_demotions = [int(sum(boundary_demotions))]
    return metrics


def _unilru_counts(
    profile: StackDistanceProfile,
    warmup_count: int,
    client_capacity: int,
    server_size: int,
) -> Tuple[List[int], List[int], int]:
    """(level hits, boundary demotions, evictions) of a two-level
    uniLRU at ``[client_capacity, server_size]``, measured region only."""
    total = client_capacity + server_size
    l1 = profile.hits_within(client_capacity, warmup_count)
    aggregate = profile.hits_within(total, warmup_count)
    demotions = profile.overflow_count(client_capacity, warmup_count)
    evictions = profile.overflow_count(total, warmup_count)
    return [l1, aggregate - l1], [demotions], evictions


def derive_sweep_results(
    scheme: str,
    trace: Trace,
    client_capacity: int,
    server_sizes: Sequence[int],
    costs: CostModel,
    warmup_fraction: float = DEFAULT_WARMUP,
    scheme_kwargs: Optional[Dict[str, object]] = None,
) -> List[RunResult]:
    """All capacity points of a single-client two-level sweep, derived
    from stack-distance profiles instead of per-point simulation.

    Returns one :class:`RunResult` per ``server_sizes`` entry,
    bit-identical (up to :data:`~repro.sim.results.TIMING_EXTRAS`) to
    ``Engine(make_scheme(scheme, [client_capacity, size]), costs,
    warmup_fraction).drive(trace)`` — the counters are reconstructed
    exactly and the packaging arithmetic is shared
    (:func:`repro.sim.engine.result_from_metrics`).

    Raises:
        ConfigurationError: for schemes :func:`supports_scheme` rejects.
    """
    from repro.hierarchy.registry import make_scheme

    if not supports_scheme(scheme, scheme_kwargs, num_clients=1):
        raise ConfigurationError(
            f"scheme {scheme!r} (kwargs {scheme_kwargs or {}}) is not "
            f"MRC-derivable; supported: {MRC_SCHEMES} single-client "
            "with LRU levels"
        )
    check_positive("client_capacity", client_capacity)
    check_fraction("warmup_fraction", warmup_fraction)
    sizes = [int(check_positive("server_size", int(s))) for s in server_sizes]

    warmup_count = int(len(trace) * warmup_fraction)
    references = len(trace) - warmup_count
    profile = stack_distances(trace.blocks)
    l1_hits = profile.hits_within(client_capacity, warmup_count)

    if scheme.lower() == "indlru":
        # Level 2 is LRU over the level-1 miss stream (fixed: the sweep
        # varies only the server size), so one profile of the filtered
        # stream yields every point.
        filtered_positions = np.flatnonzero(
            profile.distances > client_capacity
        )
        filtered = stack_distances(trace.blocks[filtered_positions])
        measured_start = int(
            np.searchsorted(filtered_positions, warmup_count, side="left")
        )
        counts = [
            (
                [l1_hits, filtered.hits_within(size, measured_start)],
                [0],
                0,
            )
            for size in sizes
        ]
    else:
        counts = [
            _unilru_counts(profile, warmup_count, client_capacity, size)
            for size in sizes
        ]

    # One throwaway instance pins the display name Engine.drive reports.
    scheme_name = make_scheme(
        scheme, [client_capacity, sizes[0]], 1, **dict(scheme_kwargs or {})
    ).name if sizes else scheme
    results = []
    for size, (level_hits, demotions, evictions) in zip(sizes, counts):
        metrics = _fill_collector(
            2, references, level_hits, demotions, evictions
        )
        results.append(
            result_from_metrics(
                scheme_name,
                trace.info.name,
                [client_capacity, size],
                metrics,
                costs,
                warmup_count,
            )
        )
    return results
