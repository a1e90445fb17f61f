#!/usr/bin/env python3
"""Run the protocols over real TCP sockets (asyncio runtime).

Starts a localhost cluster with one TCP server per group — optionally
emulating the AWS wide-area latencies on every connection, the same technique
the paper uses on CloudLab — and multicasts a few messages from an asyncio
client, printing the per-destination response latencies.

Run with:  python examples/asyncio_cluster.py [--protocol flexcast|flexcast-hybrid|hierarchical|distributed] [--emulate-wan]
"""

import argparse
import asyncio

from repro.overlay.builders import build_complete, build_o1, build_t1
from repro.core.flexcast import FlexCastProtocol
from repro.core.timestamps import Exposure
from repro.protocols.hierarchical import HierarchicalProtocol
from repro.protocols.skeen import SkeenProtocol
from repro.runtime.cluster import LocalCluster
from repro.sim.latencies import aws_latency_matrix


def build_protocol(name: str):
    latencies = aws_latency_matrix()
    if name == "flexcast":
        return FlexCastProtocol(build_o1(latencies)), latencies
    if name == "flexcast-hybrid":
        # Every global message exposed to the Skeen-timestamp authority: they
        # also acquire final timestamps (ts-propose envelopes over the wire).
        return FlexCastProtocol(build_o1(latencies), exposure=Exposure.all()), latencies
    if name == "hierarchical":
        return HierarchicalProtocol(build_t1(latencies)), latencies
    if name == "distributed":
        return SkeenProtocol(build_complete(latencies)), latencies
    raise SystemExit(f"unknown protocol {name!r}")


async def run(protocol_name: str, emulate_wan: bool) -> None:
    protocol, latencies = build_protocol(protocol_name)
    print(f"starting {protocol.describe()} on localhost "
          f"({'emulated WAN latencies' if emulate_wan else 'raw loopback'}) ...")
    async with LocalCluster(protocol, latencies=latencies, emulate_wan=emulate_wan) as cluster:
        client = await cluster.new_client("client-1")
        workloads = [
            [0, 1],
            [2, 5, 7],
            [3, 4],
            [0, 8],
            [6, 7],
        ]
        for destinations in workloads:
            latencies_ms = await client.multicast(destinations, payload="demo", timeout=30.0)
            pretty = ", ".join(
                f"group {g}: {ms:6.1f} ms" for g, ms in sorted(latencies_ms.items())
            )
            print(f"  multicast to {destinations!s:<12} -> {pretty}")

        sizes = {gid: len(cluster.delivered_at(gid)) for gid in protocol.groups}
        print("deliveries per group:", {g: n for g, n in sizes.items() if n})


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__,
        epilog=(
            "This demo runs every group in ONE process (LocalCluster).  For "
            "N groups x M replicas as separate OS processes with per-replica "
            "WAL durability and kill/restart supervision, use "
            "repro.runtime.proc.ProcessCluster — see docs/OPERATIONS.md."
        ),
    )
    parser.add_argument("--protocol", default="flexcast",
                        choices=["flexcast", "flexcast-hybrid", "hierarchical", "distributed"])
    parser.add_argument("--emulate-wan", action="store_true",
                        help="inject AWS inter-region latencies on every connection")
    args = parser.parse_args()
    asyncio.run(run(args.protocol, args.emulate_wan))


if __name__ == "__main__":
    main()
