"""Declarative run specifications.

A :class:`RunSpec` captures *everything* needed to reproduce one
simulation run — the scheme's registry name and construction kwargs, the
workload recipe (generator + parameters, or a trace file), the cache
capacities, the cost model and the warm-up fraction — as plain JSON-able
data. Because a spec is data rather than live objects, it can be

- hashed (:meth:`RunSpec.spec_hash`) to key a result cache,
- pickled/JSON-ed across process boundaries so a worker can rebuild the
  scheme and trace from the spec alone, and
- compared structurally (two runs with the same spec are the same run).

The hash covers every field that influences the simulation output,
including scheme kwargs and the workload seed; changing any of them
yields a different hash and therefore a cache miss.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, TraceFormatError
from repro.hierarchy.base import MultiLevelScheme
from repro.hierarchy.registry import make_scheme
from repro.sim.costs import CostModel
from repro.sim.engine import DEFAULT_WARMUP
from repro.workloads.base import Trace

#: Bump when the spec schema or engine semantics change incompatibly;
#: part of the hash, so stale caches invalidate themselves.
#: Version 2: RunResult grew an explicit ``t_message_ms`` component
#: (previously folded into ``t_demotion_ms``), so version-1 cached
#: results carry an incompatible time decomposition.
#: Version 3: file workloads are read by suffix through
#: ``open_trace_chunks``, so a ``.csv``, ``.bin`` or ``.raw`` file that
#: version 2 parsed as a text trace now parses in its own format.
SPEC_VERSION = 3


def _canonical_json(payload: object) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _frozen_params(params: Optional[Mapping[str, object]]) -> Dict[str, object]:
    out = dict(params or {})
    for key, value in out.items():
        try:
            json.dumps(value)
        except TypeError:
            raise ConfigurationError(
                f"spec parameter {key!r} is not JSON-serializable: {value!r}"
            ) from None
    return out


@dataclass(frozen=True)
class WorkloadSpec:
    """A trace described by recipe instead of by its contents.

    Attributes:
        kind: ``"large"`` / ``"multi"`` / ``"small"`` (the named paper
            workload families), ``"synthetic"`` (a pattern primitive from
            :mod:`repro.workloads.synthetic`) or ``"file"`` (any trace
            :func:`~repro.workloads.io.open_trace_chunks` reads, chosen
            by suffix).
        name: workload/generator name, or the file path for ``"file"``.
        params: keyword arguments forwarded to the factory (``scale``,
            ``num_refs``, ``seed`` ...). Must be JSON-serializable.
    """

    kind: str
    name: str
    params: Dict[str, object] = field(default_factory=dict)

    KINDS = ("large", "multi", "small", "synthetic", "file")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ConfigurationError(
                f"unknown workload kind {self.kind!r}; available: {self.KINDS}"
            )
        object.__setattr__(self, "params", _frozen_params(self.params))

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "name": self.name, "params": dict(self.params)}

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "WorkloadSpec":
        return WorkloadSpec(
            kind=str(data["kind"]),
            name=str(data["name"]),
            params=dict(data.get("params", {})),  # type: ignore[arg-type]
        )

    def _hash_payload(self) -> Dict[str, object]:
        payload = self.to_dict()
        if self.kind == "file":
            # Content-address trace files: editing the file invalidates
            # every cached result that was computed from it.
            payload["content_sha256"] = _file_digest(self.name)
        return payload

    def content_hash(self) -> str:
        """Stable hex digest of the workload recipe."""
        return hashlib.sha256(
            _canonical_json(self._hash_payload()).encode("utf-8")
        ).hexdigest()

    def build(self) -> Trace:
        """Materialize the trace this spec describes."""
        if self.kind == "large":
            from repro.workloads.largescale import make_large_workload

            return make_large_workload(self.name, **self.params)
        if self.kind == "multi":
            from repro.workloads.multiclient import make_multi_workload

            return make_multi_workload(self.name, **self.params)
        if self.kind == "small":
            from repro.workloads.smallscale import make_small_workload

            return make_small_workload(self.name, **self.params)
        if self.kind == "synthetic":
            from repro.workloads import synthetic

            generators = {
                "random": synthetic.random_trace,
                "zipf": synthetic.zipf_trace,
                "sequential": synthetic.sequential_trace,
                "looping": synthetic.looping_trace,
                "temporal": synthetic.temporal_trace,
                "phased": synthetic.phased_trace,
            }
            try:
                generator = generators[self.name]
            except KeyError:
                raise ConfigurationError(
                    f"unknown synthetic generator {self.name!r}; "
                    f"available: {sorted(generators)}"
                ) from None
            return generator(**self.params)
        # kind == "file"
        from repro.workloads.io import materialize, open_trace_chunks

        return materialize(*open_trace_chunks(self.name))


def _file_digest(path: str) -> str:
    """Content digest of a trace file, or of a columnar trace directory
    (every member file, visited in sorted-name order, with names folded
    into the digest so renames invalidate too)."""
    digest = hashlib.sha256()
    target = Path(path)
    try:
        members = (
            sorted(p for p in target.iterdir() if p.is_file())
            if target.is_dir()
            else [target]
        )
        for member in members:
            if target.is_dir():
                digest.update(member.name.encode("utf-8"))
                digest.update(b"\x00")
            with open(member, "rb") as handle:
                for chunk in iter(lambda: handle.read(1 << 20), b""):
                    digest.update(chunk)
    except OSError as exc:
        raise TraceFormatError(f"cannot read trace {path}: {exc}") from exc
    return digest.hexdigest()


@dataclass(frozen=True)
class CostSpec:
    """A :class:`~repro.sim.costs.CostModel` as plain numbers."""

    hit_times: Tuple[float, ...]
    miss_time: float
    demotion_times: Tuple[float, ...]
    message_time: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "hit_times", tuple(float(t) for t in self.hit_times)
        )
        object.__setattr__(
            self,
            "demotion_times",
            tuple(float(t) for t in self.demotion_times),
        )

    @staticmethod
    def from_model(costs: CostModel) -> "CostSpec":
        return CostSpec(
            hit_times=tuple(costs.hit_times),
            miss_time=costs.miss_time,
            demotion_times=tuple(costs.demotion_times),
            message_time=costs.message_time,
        )

    def build(self) -> CostModel:
        return CostModel(
            hit_times=list(self.hit_times),
            miss_time=self.miss_time,
            demotion_times=list(self.demotion_times),
            message_time=self.message_time,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "hit_times": list(self.hit_times),
            "miss_time": self.miss_time,
            "demotion_times": list(self.demotion_times),
            "message_time": self.message_time,
        }

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "CostSpec":
        return CostSpec(
            hit_times=tuple(data["hit_times"]),  # type: ignore[arg-type]
            miss_time=float(data["miss_time"]),  # type: ignore[arg-type]
            demotion_times=tuple(data["demotion_times"]),  # type: ignore[arg-type]
            message_time=float(data.get("message_time", 0.0)),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class SchemeSpec:
    """A scheme by registry name + construction kwargs (no capacities).

    Used by sweeps, where the same scheme is instantiated at many
    capacity points; :class:`RunSpec` binds the capacities.
    """

    name: str
    kwargs: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "kwargs", _frozen_params(self.kwargs))

    def build(
        self, capacities: Sequence[int], num_clients: int = 1
    ) -> MultiLevelScheme:
        return make_scheme(
            self.name, list(capacities), num_clients, **self.kwargs
        )


@dataclass(frozen=True)
class RunSpec:
    """One simulation run, fully described by serializable data.

    ``scheme`` is a registry name (see
    :func:`repro.hierarchy.registry.available_schemes`); ``scheme_kwargs``
    are forwarded to the factory. Construction of the live scheme, trace
    and cost model is deferred to :meth:`build_scheme` /
    :meth:`build_trace` / :meth:`build_costs`, which a worker process
    calls after receiving the spec.
    """

    scheme: str
    capacities: Tuple[int, ...]
    workload: WorkloadSpec
    costs: CostSpec
    num_clients: int = 1
    scheme_kwargs: Dict[str, object] = field(default_factory=dict)
    warmup_fraction: float = DEFAULT_WARMUP

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "capacities", tuple(int(c) for c in self.capacities)
        )
        object.__setattr__(
            self, "scheme_kwargs", _frozen_params(self.scheme_kwargs)
        )

    # -- construction ------------------------------------------------------

    def build_scheme(self) -> MultiLevelScheme:
        return make_scheme(
            self.scheme,
            list(self.capacities),
            self.num_clients,
            **self.scheme_kwargs,
        )

    def build_trace(self) -> Trace:
        return self.workload.build()

    def build_costs(self) -> CostModel:
        return self.costs.build()

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "version": SPEC_VERSION,
            "scheme": self.scheme,
            "capacities": list(self.capacities),
            "num_clients": self.num_clients,
            "scheme_kwargs": dict(self.scheme_kwargs),
            "workload": self.workload.to_dict(),
            "costs": self.costs.to_dict(),
            "warmup_fraction": self.warmup_fraction,
        }

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "RunSpec":
        version = int(data.get("version", SPEC_VERSION))  # type: ignore[arg-type]
        if version != SPEC_VERSION:
            raise ConfigurationError(
                f"RunSpec version {version} not supported "
                f"(this build reads version {SPEC_VERSION})"
            )
        return RunSpec(
            scheme=str(data["scheme"]),
            capacities=tuple(data["capacities"]),  # type: ignore[arg-type]
            num_clients=int(data.get("num_clients", 1)),  # type: ignore[arg-type]
            scheme_kwargs=dict(data.get("scheme_kwargs", {})),  # type: ignore[arg-type]
            workload=WorkloadSpec.from_dict(data["workload"]),  # type: ignore[arg-type]
            costs=CostSpec.from_dict(data["costs"]),  # type: ignore[arg-type]
            warmup_fraction=float(
                data.get("warmup_fraction", DEFAULT_WARMUP)  # type: ignore[arg-type]
            ),
        )

    def spec_hash(self) -> str:
        """Content hash keying the result cache.

        Covers the spec version, scheme name + kwargs, capacities,
        client count, warm-up fraction, cost parameters and the full
        workload recipe (for generated workloads that includes the seed;
        for trace files, the file's content digest).
        """
        payload = self.to_dict()
        payload["workload"] = self.workload._hash_payload()
        return hashlib.sha256(
            _canonical_json(payload).encode("utf-8")
        ).hexdigest()


def specs_for_sweep(
    schemes: Mapping[str, SchemeSpec],
    workload: WorkloadSpec,
    client_capacity: int,
    server_sizes: Sequence[int],
    costs: CostSpec,
    num_clients: int = 1,
    warmup_fraction: float = DEFAULT_WARMUP,
) -> List[Tuple[str, int, RunSpec]]:
    """Expand a Figure-7 style sweep into ``(label, size, spec)`` rows,
    in ``server_sizes``-major order (matching the serial sweep loop)."""
    rows: List[Tuple[str, int, RunSpec]] = []
    for server_size in server_sizes:
        for label, scheme in schemes.items():
            rows.append(
                (
                    label,
                    int(server_size),
                    RunSpec(
                        scheme=scheme.name,
                        capacities=(int(client_capacity), int(server_size)),
                        num_clients=num_clients,
                        scheme_kwargs=dict(scheme.kwargs),
                        workload=workload,
                        costs=costs,
                        warmup_fraction=warmup_fraction,
                    ),
                )
            )
    return rows
