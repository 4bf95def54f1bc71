"""Result containers for simulation runs."""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Union


#: ``extras`` keys holding measurement metadata: wall-clock numbers and
#: the provenance flags — ``mrc_derived`` (the result was derived from
#: an exact miss-ratio-curve pass instead of a point simulation) and
#: ``mrc_approx`` / ``mrc_sample_rate`` (derived from a *sampled*
#: SHARDS/AET curve, so the counters are estimates). They can vary run
#: to run even when the simulation output is bit-identical, so
#: determinism checks go through :meth:`RunResult.comparable`, which
#: strips them.
TIMING_EXTRAS = frozenset(
    {
        "wall_time_s",
        "refs_per_s",
        "mrc_derived",
        "mrc_approx",
        "mrc_sample_rate",
    }
)


@dataclass(frozen=True)
class ClientStats:
    """Per-client accounting for one multi-client run."""

    client: int
    refs: int
    hit_rate: float
    demotions: int


@dataclass(frozen=True)
class RunResult:
    """Outcome of one (scheme, workload, configuration) run.

    All rates are fractions of post-warm-up references; times are
    milliseconds per reference. The time components decompose exactly:
    ``t_hit_ms + t_miss_ms + t_demotion_ms + t_message_ms == t_ave_ms``
    (``t_message_ms`` is the control-message share, which older versions
    folded into ``t_demotion_ms``). Multi-client runs carry one
    :class:`ClientStats` per client in ``per_client`` (the stringly
    ``extras["clientN_*"]`` keys duplicate them as flat floats).
    """

    scheme: str
    workload: str
    capacities: List[int]
    num_clients: int
    references: int
    warmup_references: int
    level_hit_rates: List[float]
    miss_rate: float
    demotion_rates: List[float]
    t_ave_ms: float
    t_hit_ms: float
    t_miss_ms: float
    t_demotion_ms: float
    t_message_ms: float = 0.0
    extras: Dict[str, float] = field(default_factory=dict)
    per_client: List[ClientStats] = field(default_factory=list)

    @property
    def total_hit_rate(self) -> float:
        return sum(self.level_hit_rates)

    @property
    def demotion_fraction_of_time(self) -> float:
        """Share of T_ave spent on demotions (the paper quotes e.g.
        44.7% for uniLRU on tpcc1)."""
        if self.t_ave_ms == 0:
            return 0.0
        return self.t_demotion_ms / self.t_ave_ms

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    def comparable(self) -> Dict[str, object]:
        """:meth:`to_dict` minus :data:`TIMING_EXTRAS` — everything the
        simulation determines, nothing the wall clock does. Two runs of
        the same spec (serial or parallel) compare equal on this."""
        data = self.to_dict()
        data["extras"] = {
            key: value
            for key, value in self.extras.items()
            if key not in TIMING_EXTRAS
        }
        return data

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "RunResult":
        data = dict(data)
        data["per_client"] = [
            entry if isinstance(entry, ClientStats) else ClientStats(**entry)
            for entry in data.get("per_client", [])  # type: ignore[union-attr]
        ]
        return RunResult(**data)  # type: ignore[arg-type]


def save_results(results: List[RunResult], path: Union[str, Path]) -> None:
    """Write results as a JSON list."""
    payload = [result.to_dict() for result in results]
    Path(path).write_text(json.dumps(payload, indent=2), encoding="utf-8")


def load_results(path: Union[str, Path]) -> List[RunResult]:
    """Read results written by :func:`save_results`."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return [RunResult.from_dict(item) for item in payload]


def save_results_csv(results: List[RunResult], path: Union[str, Path]) -> None:
    """Write results as a flat CSV (one row per run, for plotting tools).

    Per-level and per-boundary columns are padded to the deepest
    hierarchy in the list.
    """
    max_levels = max((len(r.level_hit_rates) for r in results), default=0)
    max_bounds = max((len(r.demotion_rates) for r in results), default=0)
    header = (
        ["scheme", "workload", "num_clients", "references",
         "total_hit_rate", "miss_rate"]
        + [f"hit_rate_L{k}" for k in range(1, max_levels + 1)]
        + [f"demotion_rate_B{k}" for k in range(1, max_bounds + 1)]
        + ["t_ave_ms", "t_hit_ms", "t_miss_ms", "t_demotion_ms",
           "t_message_ms"]
    )
    with open(Path(path), "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for result in results:
            hits = list(result.level_hit_rates) + [""] * (
                max_levels - len(result.level_hit_rates)
            )
            demotions = list(result.demotion_rates) + [""] * (
                max_bounds - len(result.demotion_rates)
            )
            writer.writerow(
                [result.scheme, result.workload, result.num_clients,
                 result.references, result.total_hit_rate, result.miss_rate]
                + hits
                + demotions
                + [result.t_ave_ms, result.t_hit_ms, result.t_miss_ms,
                   result.t_demotion_ms, result.t_message_ms]
            )
