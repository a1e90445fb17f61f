"""A cluster of single-replica groups hosted in the test's event loop.

The servers are the ones a process cluster spawns (:class:`ReplicaServer`,
built from a :class:`ClusterSpec`), without the processes: the test can
reach into each replica, and a run costs milliseconds.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional

from repro.core.message import NodeHello
from repro.runtime import AsyncMulticastClient, ClusterSpec, ReplicaServer
from repro.smr.replica import replica_node


class ReplicaCluster:
    """``groups`` groups of one replica each, on loopback ports;
    ``latencies`` is the spec's emulated WAN."""

    def __init__(
        self,
        groups: int,
        storage_root: str,
        latencies: Optional[List[List[float]]] = None,
    ) -> None:
        self.spec = ClusterSpec(
            groups=list(range(groups)),
            replication=1,
            storage_root=storage_root,
            latencies=latencies,
        )
        self.protocol = self.spec.build_protocol()
        self.servers: Dict[int, ReplicaServer] = {}
        self.clients: List[AsyncMulticastClient] = []

    async def __aenter__(self) -> "ReplicaCluster":
        self.spec.allocate_addresses()
        for gid in self.spec.groups:
            server = ReplicaServer(self.spec, gid, 0)
            self.servers[gid] = server
            await server.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        for client in self.clients:
            await client.stop()
        for server in self.servers.values():
            await server.stop()

    async def new_client(self, client_id: str) -> AsyncMulticastClient:
        """A started client that every replica can answer, announced with a
        ``NodeHello`` the way ``ProcessCluster.new_client`` announces it."""
        client = AsyncMulticastClient(
            client_id, protocol=self.protocol, addresses=self.spec.address_book()
        )
        self.clients.append(client)
        host, port = await client.start()
        hello = NodeHello(node_id=client_id, host=host, port=port)
        for gid in self.spec.groups:
            client.transport.send(replica_node(gid, 0), hello)
        await asyncio.sleep(0.05)
        return client

    def delivered_at(self, group_id: int) -> List[str]:
        """Message ids group ``group_id`` delivered so far, in order."""
        return self.servers[group_id].replica.local_deliveries
