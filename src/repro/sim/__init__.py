"""Trace-driven simulation: cost model, metrics, engine, sweeps."""

from repro.sim.costs import (
    BLOCK_BYTES,
    DISK_MS,
    LAN_MS,
    SAN_MS,
    CostModel,
    bytes_to_blocks,
    custom,
    paper_three_level,
    paper_two_level,
)
from repro.sim.congestion import (
    LinkLoad,
    congested_access_time,
    link_transfers_per_ref,
    saturation_rate,
)
from repro.sim.engine import DEFAULT_WARMUP, Engine
from repro.sim.metrics import MetricsCollector
from repro.sim.results import (
    TIMING_EXTRAS,
    ClientStats,
    RunResult,
    load_results,
    save_results,
    save_results_csv,
)
from repro.sim.sweep import SweepPoint, best_of, sweep_server_size

__all__ = [
    "CostModel",
    "paper_three_level",
    "paper_two_level",
    "custom",
    "bytes_to_blocks",
    "BLOCK_BYTES",
    "LAN_MS",
    "SAN_MS",
    "DISK_MS",
    "Engine",
    "LinkLoad",
    "congested_access_time",
    "link_transfers_per_ref",
    "saturation_rate",
    "DEFAULT_WARMUP",
    "MetricsCollector",
    "RunResult",
    "ClientStats",
    "TIMING_EXTRAS",
    "save_results",
    "save_results_csv",
    "load_results",
    "SweepPoint",
    "sweep_server_size",
    "best_of",
]
