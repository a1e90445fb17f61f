"""In-process localhost cluster for the asyncio runtime.

``LocalCluster`` starts one :class:`~repro.runtime.node.GroupServer` per group
of a protocol on ephemeral localhost ports, plus any number of clients, and
tears everything down cleanly.  It is the backbone of the asyncio integration
tests and of ``examples/asyncio_cluster.py``.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional

from ..obs import Observability
from ..overlay.base import GroupId
from ..protocols.base import AtomicMulticastProtocol
from ..sim.latencies import LatencyMatrix
from .client import AsyncMulticastClient
from .node import GroupServer, _http_get
from .transport import AddressBook


class LocalCluster:
    """All groups of one protocol running over TCP on localhost."""

    def __init__(
        self,
        protocol: AtomicMulticastProtocol,
        latencies: Optional[LatencyMatrix] = None,
        emulate_wan: bool = False,
        obs: Optional[Observability] = None,
    ) -> None:
        self._protocol = protocol
        self._latencies = latencies if emulate_wan else None
        #: Optional observability hub, shared by every server (series are
        #: labelled per group, so one registry holds the whole cluster and
        #: any port's ``/metrics`` shows the full picture).
        self.obs = obs
        self.addresses: AddressBook = {}
        self.servers: Dict[GroupId, GroupServer] = {}
        self.clients: List[AsyncMulticastClient] = []

    async def start(self) -> None:
        """Start one server per group; addresses become known to everyone."""
        sites = {gid: gid for gid in self._protocol.groups}
        for gid in self._protocol.groups:
            server = GroupServer(
                group_id=gid,
                protocol=self._protocol,
                addresses=self.addresses,
                latencies=self._latencies,
                sites=sites if self._latencies is not None else None,
                obs=self.obs,
            )
            host, port = await server.start()
            self.addresses[gid] = (host, port)
            self.servers[gid] = server

    async def new_client(self, client_id: str) -> AsyncMulticastClient:
        """Create and start a client wired to this cluster's address book."""
        client = AsyncMulticastClient(
            client_id=client_id, protocol=self._protocol, addresses=self.addresses
        )
        host, port = await client.start()
        self.addresses[client_id] = (host, port)
        self.clients.append(client)
        return client

    async def stop(self) -> None:
        """Stop every client and server."""
        for client in self.clients:
            await client.stop()
        for server in self.servers.values():
            await server.stop()
        # Give in-flight connection tasks a tick to finish closing.
        await asyncio.sleep(0)

    async def __aenter__(self) -> "LocalCluster":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # ------------------------------------------------------------- inspection
    def delivered_at(self, group_id: GroupId) -> List[str]:
        """Message ids delivered at ``group_id`` so far, in delivery order."""
        return [m.msg_id for m in self.servers[group_id].delivered]

    async def scrape(self) -> Dict[GroupId, str]:
        """``GET /metrics`` every server over real TCP.

        Returns the Prometheus text body per group.  With the default shared
        hub every body renders the same cluster-wide registry; the per-group
        round trip is still worthwhile because it exercises the actual HTTP
        path a scraper would hit.  Raises ``RuntimeError`` on a non-200
        (e.g. the cluster was started without an observability hub).
        """
        bodies: Dict[GroupId, str] = {}
        for gid, server in self.servers.items():
            status, body = await _http_get(server.host, server.port, "/metrics")
            if status != 200:
                raise RuntimeError(f"scrape of group {gid} failed with HTTP {status}")
            bodies[gid] = body.decode("utf-8")
        return bodies
