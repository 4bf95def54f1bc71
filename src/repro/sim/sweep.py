"""Parameter sweeps: run a family of configurations over one trace.

Figure 7 sweeps the server cache size for four schemes over three
multi-client workloads; this module provides the generic machinery.

Two execution paths:

- **Spec path** (parallel, cacheable): pass the schemes as
  :class:`repro.runner.SchemeSpec` values and the workload as a
  :class:`repro.runner.WorkloadSpec`; every (scheme, size) point becomes
  a :class:`repro.runner.RunSpec` and the batch fans out over
  :func:`repro.runner.run_specs` honouring ``jobs`` / ``cache_dir``.
- **Live-trace path** (serial): pass the same
  :class:`~repro.runner.SchemeSpec` schemes with a live
  :class:`~repro.workloads.base.Trace`. A live trace cannot cross a
  process boundary or be content-hashed, so ``jobs`` / ``cache_dir``
  are ignored on this path.

On either path, sweeps over the single-client LRU-family schemes
(``unilru``, ``indlru``) are *derived analytically*: one
stack-distance profiling pass over the trace yields every server-size
point at once (:mod:`repro.analysis.mrc`), bit-identical to the
per-point simulations it replaces and an order of magnitude faster for
many-point sweeps. Adaptive schemes (ULC, MQ ...) and multi-client runs
fall back to point simulation; ``use_mrc=False`` forces the fallback
everywhere. Derived results flow through the same result cache under the
same spec hashes, so cached point runs and MRC-derived curves are
interchangeable.
"""

from __future__ import annotations

import time  # repro: noqa DET001 -- wall-clock timing is metadata, not simulation output
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Union

from repro.sim.costs import CostModel
from repro.sim.engine import DEFAULT_WARMUP, Engine
from repro.sim.results import RunResult
from repro.workloads.base import Trace


@dataclass(frozen=True)
class SweepPoint:
    """One point of a sweep: the swept value and its run result."""

    value: int
    result: RunResult


def _mrc_labels(
    builders: Dict[str, object],
    num_clients: int,
    use_mrc: Optional[bool],
) -> Set[str]:
    """Labels whose whole sweep one MRC profiling pass can derive."""
    if use_mrc is False:
        return set()
    from repro.analysis.mrc import supports_scheme
    from repro.runner.spec import SchemeSpec

    return {
        label
        for label, builder in builders.items()
        if isinstance(builder, SchemeSpec)
        and supports_scheme(builder.name, builder.kwargs, num_clients)
    }


def _stamp_mrc_extras(
    result: RunResult, wall_s: float, references: int
) -> RunResult:
    """Provenance + throughput metadata on a derived result (all keys in
    :data:`~repro.sim.results.TIMING_EXTRAS`, so ``comparable()``
    equality with a simulated point is unaffected)."""
    extras = dict(result.extras)
    extras["mrc_derived"] = 1.0
    extras["wall_time_s"] = wall_s
    extras["refs_per_s"] = references / wall_s if wall_s > 0 else 0.0
    return replace(result, extras=extras)


def _derive_points(
    scheme_spec: object,
    trace: Trace,
    client_capacity: int,
    server_sizes: Sequence[int],
    costs: CostModel,
    warmup_fraction: float,
) -> List[RunResult]:
    """One MRC pass -> RunResults for every server size, timing stamped."""
    from repro.analysis.mrc import derive_sweep_results

    started = time.perf_counter()  # repro: noqa FLOW001 -- timing extra only
    derived = derive_sweep_results(
        scheme_spec.name,  # type: ignore[attr-defined]
        trace,
        client_capacity,
        server_sizes,
        costs,
        warmup_fraction,
        scheme_kwargs=dict(scheme_spec.kwargs),  # type: ignore[attr-defined]
    )
    # The profiling pass is shared by every point; attribute it evenly.
    # (Wall time only feeds TIMING_EXTRAS, stripped by comparable().)
    wall = (time.perf_counter() - started) / max(  # repro: noqa FLOW001 -- timing extra only
        1, len(derived)
    )
    return [
        _stamp_mrc_extras(result, wall, len(trace)) for result in derived
    ]


def sweep_server_size(
    builders: Dict[str, object],
    trace: object,
    client_capacity: int,
    server_sizes: Sequence[int],
    costs: CostModel,
    warmup_fraction: float = DEFAULT_WARMUP,
    num_clients: int = 1,
    jobs: Optional[int] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    check_invariants: Optional[int] = None,
    use_mrc: Optional[bool] = None,
) -> Dict[str, List[SweepPoint]]:
    """Run every scheme at every server size over ``trace``.

    ``builders`` maps a scheme label to a
    :class:`repro.runner.SchemeSpec` (registry name + kwargs), built
    fresh at ``[client_capacity, server_size]`` for every point (sweeps
    never reuse warm caches). ``trace`` is a
    :class:`repro.runner.WorkloadSpec` or a live
    :class:`~repro.workloads.base.Trace`.

    With specs, ``jobs`` selects the worker-process count (``None``/1
    serial, 0 all cores) and ``cache_dir`` an on-disk result cache;
    parallel results are identical to serial ones.

    ``check_invariants`` (an interval in references) validates every
    scheme's structural invariants while it runs — see
    :class:`repro.checks.InvariantCheckedScheme`. It never changes the
    results. (MRC-derived points have no live scheme to check; the
    derivation is pinned to the simulator by the equivalence suite
    instead.)

    ``use_mrc`` controls the single-pass miss-ratio-curve shortcut for
    LRU-family single-client schemes (see the module docstring):
    ``None`` auto-detects (the default), ``False`` forces point
    simulation everywhere. The results are bit-identical either way.

    Returns ``{label: [SweepPoint, ...]}`` in ``server_sizes`` order.
    """
    from repro.runner.executor import resolve_check_interval
    from repro.runner.spec import SchemeSpec, WorkloadSpec

    check_invariants = resolve_check_interval(check_invariants)

    if not all(
        isinstance(builder, SchemeSpec) for builder in builders.values()
    ):
        raise TypeError(
            "sweep_server_size needs SchemeSpec builders; got "
            f"{sorted({type(b).__name__ for b in builders.values()})}"
        )
    if isinstance(trace, WorkloadSpec):
        return _sweep_specs(
            builders,  # type: ignore[arg-type]
            trace,
            client_capacity,
            server_sizes,
            costs,
            warmup_fraction,
            num_clients,
            jobs,
            cache_dir,
            check_invariants,
            use_mrc,
        )
    if not isinstance(trace, Trace):
        raise TypeError(
            "sweep_server_size needs a WorkloadSpec or a Trace; got "
            f"{type(trace).__name__}"
        )

    mrc_labels = _mrc_labels(builders, num_clients, use_mrc)
    out: Dict[str, List[SweepPoint]] = {label: [] for label in builders}
    # Iterate builders (insertion order) and membership-test the label
    # set: iterating mrc_labels directly would walk hash order.
    for label in (l for l in builders if l in mrc_labels):
        out[label] = [
            SweepPoint(int(size), result)
            for size, result in zip(
                server_sizes,
                _derive_points(
                    builders[label],
                    trace,
                    client_capacity,
                    server_sizes,
                    costs,
                    warmup_fraction,
                ),
            )
        ]
    for server_size in server_sizes:
        for label, builder in builders.items():
            if label in mrc_labels:
                continue
            scheme = builder.build(  # type: ignore[attr-defined]
                [client_capacity, int(server_size)], num_clients
            )
            if check_invariants is not None:
                from repro.checks import InvariantCheckedScheme

                scheme = InvariantCheckedScheme(
                    scheme, every=check_invariants
                )
            result = Engine(
                scheme, costs, warmup_fraction=warmup_fraction
            ).drive(trace)
            out[label].append(SweepPoint(int(server_size), result))
    return out


def _sweep_specs(
    builders: Dict[str, object],
    workload: object,
    client_capacity: int,
    server_sizes: Sequence[int],
    costs: CostModel,
    warmup_fraction: float,
    num_clients: int,
    jobs: Optional[int],
    cache_dir: Optional[Union[str, Path]],
    check_invariants: Optional[int] = None,
    use_mrc: Optional[bool] = None,
) -> Dict[str, List[SweepPoint]]:
    from repro.runner.cache import ResultCache
    from repro.runner.executor import materialize_trace, run_specs
    from repro.runner.spec import CostSpec, specs_for_sweep

    rows = specs_for_sweep(
        builders,  # type: ignore[arg-type]
        workload,  # type: ignore[arg-type]
        client_capacity,
        server_sizes,
        CostSpec.from_model(costs),
        num_clients=num_clients,
        warmup_fraction=warmup_fraction,
    )
    mrc_labels = _mrc_labels(builders, num_clients, use_mrc)
    results: Dict[int, RunResult] = {}

    # MRC-eligible labels first: serve what the cache already has, derive
    # the rest from one profiling pass per label, and store the derived
    # points back under the *same* spec hashes a point simulation would
    # use — the cache cannot tell (and need not care) how a result was
    # obtained.
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    # builders order, not set order — see sweep_server_size.
    for label in (l for l in builders if l in mrc_labels):
        label_rows = [
            (index, size, spec)
            for index, (row_label, size, spec) in enumerate(rows)
            if row_label == label
        ]
        pending = []
        for index, size, spec in label_rows:
            cached = cache.get(spec) if cache is not None else None
            if cached is not None:
                results[index] = cached
            else:
                pending.append((index, size, spec))
        if not pending:
            continue
        derived = _derive_points(
            builders[label],
            materialize_trace(workload),  # type: ignore[arg-type]
            client_capacity,
            [size for _, size, _ in pending],
            costs,
            warmup_fraction,
        )
        for (index, _, spec), result in zip(pending, derived):
            results[index] = result
            if cache is not None:
                cache.put(spec, result)

    sim_indices = [
        index
        for index, (row_label, _, _) in enumerate(rows)
        if row_label not in mrc_labels
    ]
    sim_results = run_specs(
        [rows[index][2] for index in sim_indices],
        jobs=jobs,
        cache_dir=cache_dir,
        check_invariants=check_invariants,
    )
    results.update(zip(sim_indices, sim_results))

    out: Dict[str, List[SweepPoint]] = {label: [] for label in builders}
    for index, (label, size, _) in enumerate(rows):
        out[label].append(SweepPoint(size, results[index]))
    return out


def best_of(points_by_variant: Dict[str, List[SweepPoint]]) -> List[SweepPoint]:
    """Pointwise best (lowest T_ave) across variants of one scheme.

    The paper ran all Wong & Wilkes uniLRU versions "and report the best
    results for comparisons"; this helper implements that selection.
    """
    variants = list(points_by_variant.values())
    if not variants:
        return []
    length = len(variants[0])
    best: List[SweepPoint] = []
    for index in range(length):
        candidates = [variant[index] for variant in variants]
        best.append(min(candidates, key=lambda p: p.result.t_ave_ms))
    return best
