"""Extension benches beyond the paper's own evaluation.

- A cooperative-caching comparison (the Section-5 outlook): greedy and
  N-chance forwarding against plain independent caching on the
  partitioned openmail workload.
- A single-level policy shootout: the full replacement-policy substrate
  (LRU, CLOCK, LFU, 2Q, LRU-K, MQ, LIRS, ARC vs the OPT bound) on the
  paper's workload patterns — the context that motivates MQ/LIRS-style
  policies for locality-filtered streams.
"""

from __future__ import annotations

from repro.experiments import resolve_scale
from repro.experiments.figure7 import BASELINE_REFS, EXTRA_GEOMETRY
from repro.hierarchy import CooperativeScheme, IndependentScheme, cooperative_costs
from repro.policies import OPTPolicy, make_policy
from repro.sim import Engine, paper_two_level
from repro.util.tables import format_table
from repro.workloads import make_large_workload, openmail_like


def bench_cooperative_caching(benchmark, scale):
    resolved = resolve_scale(scale)
    geometry = resolved.geometry * EXTRA_GEOMETRY["openmail"]
    trace = openmail_like(
        scale=geometry,
        num_refs=resolved.references(BASELINE_REFS["openmail"]),
    )
    clients = trace.num_clients
    client_blocks = max(16, int(131072 * geometry))
    server_blocks = client_blocks  # a small server: peers matter

    def run_all():
        rows = []
        base = IndependentScheme([client_blocks, server_blocks], clients)
        result = Engine(base, paper_two_level()).drive(trace)
        rows.append(["indLRU (no cooperation)", result.total_hit_rate,
                     0.0, result.t_ave_ms])
        for label, n_chance in [("greedy forwarding", 0), ("2-chance", 2)]:
            scheme = CooperativeScheme(
                [client_blocks, server_blocks], clients, n_chance=n_chance
            )
            result = Engine(scheme, cooperative_costs()).drive(trace)
            rows.append(
                [label, result.total_hit_rate,
                 result.level_hit_rates[2], result.t_ave_ms]
            )
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["scheme", "total hit rate", "peer hit rate", "T_ave (ms)"],
            rows,
            title=(
                "Extension: cooperative caching on openmail "
                f"({clients} clients x {client_blocks} blocks, "
                f"server {server_blocks})"
            ),
        )
    )
    # Remote client memory must add hits over no cooperation.
    assert rows[1][1] >= rows[0][1] - 0.02
    assert rows[2][2] > 0  # N-chance produces peer hits


def bench_three_level_multi_client(benchmark, scale):
    """Multi-client ULC over a chain of shared tiers (beyond the
    paper's one shared server): clients -> shared server cache ->
    shared disk-array cache."""
    from repro.hierarchy import ULCMultiScheme
    from repro.sim import paper_three_level
    from repro.workloads import db2_like

    resolved = resolve_scale(scale)
    geometry = resolved.geometry * EXTRA_GEOMETRY["db2"]
    trace = db2_like(
        scale=geometry, num_refs=resolved.references(BASELINE_REFS["db2"])
    )
    clients = trace.num_clients
    client_blocks = max(16, int(32768 * geometry))
    server_blocks = client_blocks * clients
    array_blocks = server_blocks * 2
    costs = paper_three_level()

    def run_all():
        rows = []
        for scheme in (
            IndependentScheme([client_blocks, server_blocks, array_blocks],
                              clients),
            ULCMultiScheme(
                [client_blocks, server_blocks, array_blocks], clients
            ),
        ):
            result = Engine(scheme, costs).drive(trace)
            rows.append(
                [
                    result.scheme,
                    result.level_hit_rates[0],
                    result.level_hit_rates[1],
                    result.level_hit_rates[2],
                    result.miss_rate,
                    sum(result.demotion_rates),
                    result.t_ave_ms,
                ]
            )
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["scheme", "L1", "L2", "L3", "miss", "demotions/ref", "T_ave"],
            rows,
            title=(
                f"Extension: 3-level multi-client on db2 ({clients} clients "
                f"x {client_blocks}, server {server_blocks}, "
                f"array {array_blocks})"
            ),
        )
    )
    ind, ulc = rows
    assert ulc[6] < ind[6]          # ULC wins on access time
    assert ulc[4] <= ind[4] + 0.02  # without losing hit rate


def bench_policy_shootout(benchmark, scale):
    resolved = resolve_scale(scale)
    names = ["lru", "clock", "lfu", "2q", "lru-k", "mq", "lirs", "arc"]
    workloads = {
        name: make_large_workload(
            name,
            scale=resolved.geometry,
            num_refs=max(20_000, resolved.references(100_000)),
        )
        for name in ("zipf", "tpcc1")
    }

    def run_all():
        rows = []
        for workload_name, trace in workloads.items():
            capacity = max(64, trace.num_unique_blocks // 5)
            blocks = memoryview(trace.blocks)
            warm = len(blocks) // 10
            rates = {}
            for name in names:
                policy = make_policy(name, capacity)
                hits = 0
                for index, block in enumerate(blocks):
                    if policy.access(block).hit and index >= warm:
                        hits += 1
                rates[name] = hits / (len(blocks) - warm)
            opt = OPTPolicy(capacity, trace)
            hits = 0
            for index, block in enumerate(blocks):
                if opt.access(block).hit and index >= warm:
                    hits += 1
            rates["OPT"] = hits / (len(blocks) - warm)
            for name, rate in rates.items():
                rows.append([workload_name, name, rate])
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["workload", "policy", "hit rate"],
            rows,
            title="Extension: single-level policy shootout (cache = 20% of set)",
        )
    )
    by_key = {(row[0], row[1]): row[2] for row in rows}
    for workload in ("zipf", "tpcc1"):
        for name in names:
            assert by_key[(workload, "OPT")] >= by_key[(workload, name)] - 1e-9
    # On the looping tpcc1 pattern, LIRS beats plain LRU.
    assert by_key[("tpcc1", "lirs")] >= by_key[("tpcc1", "lru")]
