"""Extension: cooperative caching — peers as an extra cache level.

The paper's Section 5 points to cooperative caching as the setting its
locality machinery could enhance: the other clients' memories form a
level between the server cache and the disks. This example runs the two
classic algorithms (greedy forwarding and N-chance forwarding) against
plain independent caching on a partitioned mail-server workload, and
shows where the extra level pays: when the server cache is small and a
client's working set spills, a peer's idle memory catches it.

Run:  python examples/cooperative_caching.py
"""

from __future__ import annotations

from repro.hierarchy import (
    CooperativeScheme,
    IndependentScheme,
    cooperative_costs,
)
from repro.sim import Engine, paper_two_level
from repro.util.tables import format_table
from repro.workloads import openmail_like


def main() -> None:
    trace = openmail_like(scale=1 / 512, num_refs=60_000)
    clients = trace.num_clients
    client_blocks = 256
    rows = []
    for server_blocks in (128, 512):
        base = IndependentScheme([client_blocks, server_blocks], clients)
        result = Engine(base, paper_two_level()).drive(trace)
        rows.append(
            [server_blocks, "indLRU (no cooperation)",
             result.total_hit_rate, 0.0, result.t_ave_ms]
        )
        for label, n_chance in [("greedy forwarding", 0), ("2-chance", 2)]:
            scheme = CooperativeScheme(
                [client_blocks, server_blocks], clients, n_chance=n_chance
            )
            result = Engine(scheme, cooperative_costs()).drive(trace)
            rows.append(
                [server_blocks, label, result.total_hit_rate,
                 result.level_hit_rates[2], result.t_ave_ms]
            )
    print(
        format_table(
            ["server", "scheme", "total hit rate", "peer hits", "T_ave (ms)"],
            rows,
            title=(
                f"Cooperative caching, {clients} mail servers x "
                f"{client_blocks}-block caches"
            ),
        )
    )
    print(
        "\nWith every client equally busy, greedy forwarding helps "
        "modestly and N-chance\nmostly displaces the peers' own data. "
        "N-chance is built for IDLE peers:\n"
    )
    idle_peer_scenario()


def idle_peer_scenario() -> None:
    """One busy client, five idle peers — N-chance's home ground."""
    import numpy as np

    from repro.workloads import Trace, zipf_trace

    # Client 0 works over a set 4x its cache; clients 1-5 are idle.
    busy = zipf_trace(2048, 60_000, alpha=0.8, seed=11)
    clients = np.zeros(len(busy), dtype=np.int32)
    trace = Trace(busy.blocks, clients)
    rows = []
    for label, n_chance in [("greedy forwarding", 0), ("2-chance", 2)]:
        scheme = CooperativeScheme([512, 256], num_clients=6, n_chance=n_chance)
        result = Engine(scheme, cooperative_costs()).drive(trace)
        rows.append(
            [label, result.total_hit_rate, result.level_hit_rates[2],
             result.t_ave_ms]
        )
    print(
        format_table(
            ["scheme", "total hit rate", "peer hits", "T_ave (ms)"],
            rows,
            title="One busy client, five idle peers (512-block caches)",
        )
    )
    print(
        "\nThe busy client's evicted singlets survive in the idle peers' "
        "memories: a peer hit\ncosts 2 ms instead of the 11.2 ms disk "
        "path."
    )


if __name__ == "__main__":
    main()
