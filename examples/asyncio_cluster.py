#!/usr/bin/env python3
"""Run FlexCast over real TCP sockets, one OS process per group.

Starts a localhost process cluster of six groups, one replica each, placed
in six AWS regions — optionally emulating the wide-area latencies between
them on every connection, the same technique the paper uses on CloudLab —
and multicasts a few messages from an asyncio client, printing the
per-destination response latencies.

Run with:  python examples/asyncio_cluster.py [--emulate-wan]
"""

import argparse
import asyncio
import tempfile

from repro.runtime.proc import ProcessCluster
from repro.sim.latencies import aws_latency_matrix

#: Group g runs in AWS region REGIONS[g]: N. Virginia, Oregon, Ireland,
#: Frankfurt, Tokyo, Singapore.
REGIONS = [0, 3, 5, 7, 8, 9]


def wan_rows():
    """One-way milliseconds between the groups' regions (the spec's matrix)."""
    aws = aws_latency_matrix()
    return [[aws.latency(src, dst) for dst in REGIONS] for src in REGIONS]


async def run(emulate_wan: bool) -> None:
    print(f"starting FlexCast, {len(REGIONS)} groups x 1 replica on localhost "
          f"({'emulated WAN latencies' if emulate_wan else 'raw loopback'}) ...")
    with tempfile.TemporaryDirectory(prefix="asyncio-cluster-") as storage_root:
        async with ProcessCluster(
            groups=len(REGIONS),
            replication=1,
            storage_root=storage_root,
            latencies=wan_rows() if emulate_wan else None,
        ) as cluster:
            client = await cluster.new_client("client-1")
            workloads = [
                [0, 1],
                [2, 3, 5],
                [3, 4],
                [0, 4],
                [1, 2, 5],
            ]
            for destinations in workloads:
                latencies_ms = await client.multicast(
                    destinations, payload="demo", timeout=30.0
                )
                pretty = ", ".join(
                    f"group {g}: {ms:6.1f} ms" for g, ms in sorted(latencies_ms.items())
                )
                print(f"  multicast to {destinations!s:<12} -> {pretty}")

            sizes = {
                gid: (await cluster.await_group_convergence(gid))["count"]
                for gid in cluster.spec.groups
            }
            print("deliveries per group:", {g: n for g, n in sizes.items() if n})


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__,
        epilog=(
            "Each group is a replicated log of one replica with its own WAL; "
            "ProcessCluster(replication=3) adds the followers, and "
            "docs/OPERATIONS.md covers kill/restart supervision.  The "
            "baselines (Skeen, hierarchical) run in the simulator: "
            "examples/paper_figures.py."
        ),
    )
    parser.add_argument("--emulate-wan", action="store_true",
                        help="inject AWS inter-region latencies on every connection")
    args = parser.parse_args()
    asyncio.run(run(args.emulate_wan))


if __name__ == "__main__":
    main()
