"""Process-level cluster runtime: N groups × M replicas as real OS processes.

Everything below one process boundary reuses the existing building blocks —
the wire codec (which since this module also carries the multi-Paxos frames),
:class:`~repro.runtime.transport.AsyncioTransport`,
:class:`~repro.smr.replica.GroupReplica` for the gated leader/follower state
machine, and :class:`~repro.storage.file.FileStorage` for per-replica WAL
durability.  What this module adds is the topology and the supervision:

* :class:`ReplicaServer` — the child side.  One OS process runs exactly one
  replica of one group, serving frames and a small HTTP plane (``/metrics``,
  ``/ready``, ``/delivered``, ``/stop`` and the ``/admin/*`` failure-detector
  endpoints) on a single TCP port.  Run it with
  ``python -m repro.runtime.proc --spec spec.json --group G --replica I``.
* :class:`ProcessCluster` — the parent side.  Allocates ports, writes the
  cluster spec, spawns the children, polls readiness, and drives
  kill/restart through the PR-6/PR-8 rejoin + snapshot-frame path.

Topology conventions (documented for operators in ``docs/OPERATIONS.md``):

* Replica ``i`` of group ``g`` is the network node ``group-g-replica-i``
  (:func:`~repro.smr.replica.replica_node`) and owns exactly one port.
* A *group-level* destination (an int group id, as used by clients and by
  inter-group protocol traffic) is routed to that group's replica 0 — the
  default multi-Paxos leader.  While replica 0 is down, frames addressed to
  the group are lost until it restarts; client resubmission covers the gap
  (the same asynchronous-model loss the protocol already tolerates).
* Storage lives under ``<storage_root>/group-G/replica-I/`` — the acceptor
  WAL and commit log of that replica, nothing else.  Replica protocol state
  is a pure function of the replicated log, so a SIGKILL'd process restarts
  from its WALs, catches up the decided suffix from its peers, and converges
  (the recovery-oracle invariant from PR 6, now across real processes).
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Tuple
from urllib.parse import parse_qs, quote, urlsplit

from ..core.flexcast import FlexCastProtocol
from ..core.message import NodeHello
from ..core.timestamps import Exposure
from ..obs import Observability
from ..overlay.base import GroupId
from ..overlay.cdag import CDagOverlay
from ..smr.replica import GroupReplica, replica_node
from ..storage.file import FileStorage
from .client import AsyncMulticastClient
from .node import FrameServer, HttpResponse, _http_get
from .transport import AddressBook, AsyncioTransport


# ------------------------------------------------------------------- spec
@dataclass
class ClusterSpec:
    """Everything a child process needs to know about the cluster.

    The parent writes this to ``<storage_root>/spec.json``; each child is
    handed the file path plus its own ``(group, replica)`` coordinates.
    Addresses are stored as ``[node_id, host, port]`` triples so int group
    ids survive the JSON round-trip (a JSON object would stringify them).
    """

    groups: List[GroupId]
    replication: int
    storage_root: str
    host: str = "127.0.0.1"
    hybrid: bool = False
    addresses: List[Tuple[Hashable, str, int]] = field(default_factory=list)

    # ----------------------------------------------------------- derived views
    def address_book(self) -> AddressBook:
        """The spec's addresses as a transport address book."""
        return {node_id: (host, port) for node_id, host, port in self.addresses}

    def replica_ids(self, group_id: GroupId) -> List[str]:
        return [replica_node(group_id, i) for i in range(self.replication)]

    def replica_address(self, group_id: GroupId, index: int) -> Tuple[str, int]:
        return self.address_book()[replica_node(group_id, index)]

    def replica_dir(self, group_id: GroupId, index: int) -> str:
        return os.path.join(
            self.storage_root, f"group-{group_id}", f"replica-{index}"
        )

    def build_protocol(self) -> FlexCastProtocol:
        """The (deterministic) protocol instance every process agrees on."""
        return FlexCastProtocol(
            CDagOverlay(list(self.groups)),
            exposure=Exposure.all() if self.hybrid else Exposure.none(),
        )

    # -------------------------------------------------------------------- json
    def to_json(self) -> str:
        return json.dumps(
            {
                "groups": list(self.groups),
                "replication": self.replication,
                "storage_root": self.storage_root,
                "host": self.host,
                "hybrid": self.hybrid,
                "addresses": [list(triple) for triple in self.addresses],
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "ClusterSpec":
        data = json.loads(text)
        return cls(
            groups=list(data["groups"]),
            replication=data["replication"],
            storage_root=data["storage_root"],
            host=data.get("host", "127.0.0.1"),
            hybrid=data.get("hybrid", False),
            addresses=[tuple(triple) for triple in data["addresses"]],
        )


def _sequence_digest(ids: List[str]) -> str:
    """Stable digest of a delivery sequence (cheap cross-process comparison).

    The definition of ``/delivered``'s ``digest``; the server answers from
    :attr:`GroupReplica.delivery_hash`, which maintains it incrementally."""
    return hashlib.sha256("\n".join(ids).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------- child side
class ReplicaServer(FrameServer):
    """One replica of one group, served over TCP in its own process.

    Frames (client requests, inter-group protocol traffic, intra-group
    multi-Paxos traffic) arrive on the replica's single port and are fed to
    the :class:`~repro.smr.replica.GroupReplica`; the same port answers the
    HTTP admin plane the supervisor drives:

    ``/metrics``
        Prometheus text exposition of this process's registry.
    ``/ready``
        JSON readiness document (also reports leadership, the ballot of this
        replica's latest leadership and log position: ``applied`` counts
        consensus instances, each of which may carry several envelopes).
    ``/delivered``
        Local delivery sequence as ``{count, digest}``; ``?full=1`` adds the
        ids themselves (used by the convergence checks and the tests'
        recovery oracle; digests keep the common case O(1)-sized).
    ``/admin/mark-failed?replica=ID``
        Failure-detector input: consider ``ID`` crashed.
    ``/admin/rejoin``
        Announce this (restarted) replica to its peers and pull the decided
        suffix (:meth:`~repro.smr.replica.GroupReplica.rejoin`).
    ``/admin/offer-snapshot``
        If this replica currently leads, order a packed history snapshot
        through the log for any rejoiner (the PR-8 snapshot-frame path).
    ``/stop``
        Graceful shutdown: the serve loop exits and the process ends.
    """

    def __init__(
        self,
        spec: ClusterSpec,
        group_id: GroupId,
        index: int,
        obs: Optional[Observability] = None,
    ) -> None:
        self.spec = spec
        self.group_id = group_id
        self.index = index
        self.replica_id = replica_node(group_id, index)
        addresses = spec.address_book()
        host, port = addresses[self.replica_id]
        super().__init__(host=host, port=port)
        obs = obs if obs is not None else Observability()
        self.transport = AsyncioTransport(node_id=self.replica_id, addresses=addresses)
        self._storage = FileStorage(spec.replica_dir(group_id, index), obs=obs)
        # Deliveries are only counted (the base's ``reported_deliveries``):
        # a soak run pushes millions of messages through one process, and
        # retaining the Message objects would dwarf the protocol state.  The
        # id sequence (for oracles) lives in ``replica.local_deliveries``.
        # Only the current leader's sink fires (the gate inside GroupReplica).
        self.replica = GroupReplica(
            group_id=group_id,
            replica_id=self.replica_id,
            peer_replicas=spec.replica_ids(group_id),
            protocol=spec.build_protocol(),
            transport=self.transport,
            sink=self._sink,
            storage=self._storage,
        )
        self.replica.attach_obs(obs)
        self._register_metrics(
            obs, {"group": str(group_id), "replica": self.replica_id}
        )
        self.stop_requested = asyncio.Event()

    # ------------------------------------------------------------------ frames
    def handle_frame(self, sender: Hashable, envelope: Any) -> None:
        self.replica.on_message(sender, envelope)

    # -------------------------------------------------------------------- http
    def handle_http(self, path: str) -> HttpResponse:
        split = urlsplit(path)
        route = split.path
        query = parse_qs(split.query)
        if route == "/ready":
            smr = self.replica.smr
            return self._json_response(
                {
                    "ready": True,
                    "group": self.group_id,
                    "replica": self.replica_id,
                    "leader": self.replica.is_leader,
                    "ballot": [smr.ballot.round, smr.ballot.proposer],
                    "applied": smr.applied_count,
                    "recovered_instances": smr.recovered_instances,
                }
            )
        if route == "/delivered":
            # Polled every ~50 ms per replica while a cluster converges:
            # nothing here may cost O(deliveries) unless the caller asks for
            # the sequence itself.
            ids = self.replica.local_deliveries
            body: Dict[str, Any] = {
                "count": len(ids),
                "digest": self.replica.delivery_hash.copy().hexdigest(),
            }
            if query.get("full", ["0"])[-1] == "1":
                body["sequence"] = list(ids)
            return self._json_response(body)
        if route == "/admin/mark-failed":
            victims = query.get("replica", [])
            for victim in victims:
                self.replica.mark_failed(victim)
            return self._json_response({"marked_failed": victims})
        if route == "/admin/rejoin":
            self.replica.rejoin()
            return self._json_response({"rejoined": self.replica_id})
        if route == "/admin/offer-snapshot":
            # The supervisor asks *every* survivor after a restart; only the
            # current leader acts.
            return self._json_response({"offered": self.replica.offer_snapshot()})
        if route == "/stop":
            self.stop_requested.set()
            return self._json_response({"stopping": self.replica_id})
        return super().handle_http(path)

    @staticmethod
    def _json_response(payload: Dict[str, Any]) -> HttpResponse:
        body = json.dumps(payload).encode("utf-8") + b"\n"
        return b"200 OK", body, b"application/json"

    # --------------------------------------------------------------- lifecycle
    async def stop(self) -> None:
        """Stop listening, then fsync and close the WALs: a graceful stop
        leaves no record in an fsync batch and no file handle open."""
        await super().stop()
        # A connection handler may still be draining frames it had buffered,
        # and a turn's flush may still be pending; the log no longer takes them.
        self.replica.kill()
        self._storage.close()

    async def serve_until_stopped(self) -> None:
        """Serve frames and HTTP until ``/stop`` (or SIGTERM/SIGINT)."""
        await self.start()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.stop_requested.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        await self.stop_requested.wait()
        await self.stop()


async def _serve_child(spec_path: str, group_id: GroupId, index: int) -> None:
    with open(spec_path, "r", encoding="utf-8") as handle:
        spec = ClusterSpec.from_json(handle.read())
    server = ReplicaServer(spec, group_id, index)
    await server.serve_until_stopped()


def main(argv: Optional[List[str]] = None) -> int:
    """Child entry point: ``python -m repro.runtime.proc`` runs one replica."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.proc",
        description="Run one replica of one group of a process cluster.",
        epilog=(
            "Normally spawned by repro.runtime.proc.ProcessCluster; see "
            "docs/OPERATIONS.md for the cluster topology and admin endpoints."
        ),
    )
    parser.add_argument("--spec", required=True, help="path to spec.json")
    parser.add_argument("--group", required=True, type=int, help="group id")
    parser.add_argument("--replica", required=True, type=int, help="replica index")
    args = parser.parse_args(argv)
    asyncio.run(_serve_child(args.spec, args.group, args.replica))
    return 0


# --------------------------------------------------------------- parent side
class ProcessCluster:
    """Supervisor for N groups × M replicas running as real OS processes.

    Startup ordering is a non-issue by construction: every port is allocated
    and written into the spec *before* the first child starts, children do
    not talk to each other until traffic arrives, and the supervisor gates
    :meth:`start` on every child's ``/ready`` endpoint.  Shutdown is
    graceful-first (``/stop``), escalating to SIGTERM then SIGKILL.

    Crash handling follows the PR-6/PR-8 model, driven over the admin plane:
    :meth:`kill_replica` SIGKILLs one child and tells its group's survivors
    to mark it failed; :meth:`restart_replica` respawns it from its WALs,
    waits for readiness, triggers :meth:`GroupReplica.rejoin` catch-up, and
    offers a packed history snapshot through the log from the current
    leader.  :meth:`await_group_convergence` then polls the survivors' and
    the rejoiner's ``/delivered`` digests until they agree.
    """

    def __init__(
        self,
        groups: int = 2,
        replication: int = 3,
        storage_root: Optional[str] = None,
        hybrid: bool = False,
        host: str = "127.0.0.1",
    ) -> None:
        if groups < 1 or replication < 1:
            raise ValueError("need at least one group and one replica")
        self.spec = ClusterSpec(
            groups=list(range(groups)),
            replication=replication,
            storage_root=(
                storage_root
                if storage_root is not None
                else tempfile.mkdtemp(prefix="repro-cluster-")
            ),
            host=host,
            hybrid=hybrid,
        )
        self.protocol = self.spec.build_protocol()
        self.processes: Dict[Tuple[GroupId, int], subprocess.Popen] = {}
        self.clients: List[AsyncMulticastClient] = []
        self._spec_path: Optional[str] = None

    # -------------------------------------------------------------- inventory
    def replica_coords(self) -> List[Tuple[GroupId, int]]:
        return [
            (gid, i)
            for gid in self.spec.groups
            for i in range(self.spec.replication)
        ]

    def live_replicas(self, group_id: GroupId) -> List[int]:
        """Indices of this group's replicas whose process is running."""
        return [
            i
            for i in range(self.spec.replication)
            if (proc := self.processes.get((group_id, i))) is not None
            and proc.poll() is None
        ]

    def replica_address(self, group_id: GroupId, index: int) -> Tuple[str, int]:
        """The (host, port) a replica serves frames *and* HTTP on."""
        return self.spec.replica_address(group_id, index)

    # --------------------------------------------------------------- lifecycle
    async def start(self, ready_timeout: float = 30.0) -> None:
        """Allocate ports, write the spec, spawn every replica, await ready."""
        self._allocate_addresses()
        os.makedirs(self.spec.storage_root, exist_ok=True)
        self._spec_path = os.path.join(self.spec.storage_root, "spec.json")
        with open(self._spec_path, "w", encoding="utf-8") as handle:
            handle.write(self.spec.to_json())
        for gid, index in self.replica_coords():
            self._spawn(gid, index)
        await asyncio.gather(
            *(
                self._await_ready(gid, index, ready_timeout)
                for gid, index in self.replica_coords()
            )
        )

    async def stop(self) -> None:
        """Stop clients, then every replica process (graceful, then forceful)."""
        for client in self.clients:
            await client.stop()
        self.clients.clear()
        for (gid, index), proc in list(self.processes.items()):
            if proc.poll() is None:
                host, port = self.spec.replica_address(gid, index)
                try:
                    await _http_get(host, port, "/stop", timeout=2.0)
                except OSError:
                    pass
        deadline = asyncio.get_running_loop().time() + 5.0
        for proc in self.processes.values():
            while proc.poll() is None:
                if asyncio.get_running_loop().time() >= deadline:
                    proc.terminate()
                    try:
                        proc.wait(timeout=2.0)
                    except subprocess.TimeoutExpired:
                        proc.kill()
                        proc.wait()
                    break
                await asyncio.sleep(0.02)
        self.processes.clear()

    async def __aenter__(self) -> "ProcessCluster":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # ----------------------------------------------------------------- clients
    async def new_client(self, client_id: str) -> AsyncMulticastClient:
        """Create a client and announce its response address to every replica.

        The client routes requests by group id (→ the group's replica 0, the
        default leader); the :class:`~repro.core.message.NodeHello` announce
        lets *any* replica — including one that takes over leadership later —
        push :class:`ClientResponse` frames back to it.
        """
        client = AsyncMulticastClient(
            client_id=client_id,
            protocol=self.protocol,
            addresses=self.spec.address_book(),
        )
        host, port = await client.start()
        hello = NodeHello(node_id=client_id, host=host, port=port)
        for gid, index in self.replica_coords():
            client.transport.send(replica_node(gid, index), hello)
        self.clients.append(client)
        # One scheduler tick + a breath so the hello frames get on the wire
        # before the first request's responses could possibly come back.
        await asyncio.sleep(0.05)
        return client

    # ------------------------------------------------------------ kill/restart
    async def kill_replica(self, group_id: GroupId, index: int) -> None:
        """SIGKILL one replica process and inform its group's survivors."""
        proc = self.processes[(group_id, index)]
        proc.kill()
        proc.wait()
        victim = replica_node(group_id, index)
        for survivor in self.live_replicas(group_id):
            host, port = self.spec.replica_address(group_id, survivor)
            await _http_get(
                host, port, f"/admin/mark-failed?replica={quote(victim)}"
            )

    async def restart_replica(
        self, group_id: GroupId, index: int, ready_timeout: float = 30.0
    ) -> None:
        """Respawn a killed replica from its WALs and drive the rejoin path."""
        self._spawn(group_id, index)
        await self._await_ready(group_id, index, ready_timeout)
        host, port = self.spec.replica_address(group_id, index)
        await _http_get(host, port, "/admin/rejoin")
        # Let the catch-up round land before offering the history snapshot
        # (both are idempotent; the sleep only shortens convergence).
        await asyncio.sleep(0.2)
        for survivor in self.live_replicas(group_id):
            shost, sport = self.spec.replica_address(group_id, survivor)
            await _http_get(shost, sport, "/admin/offer-snapshot")

    async def await_group_convergence(
        self, group_id: GroupId, timeout: float = 30.0, min_count: int = 0
    ) -> Dict[str, Any]:
        """Poll ``/delivered`` until every live replica agrees on the sequence.

        Returns the agreed ``{count, digest}``; raises ``TimeoutError`` with
        the divergent snapshots otherwise.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        last: List[Dict[str, Any]] = []
        while loop.time() < deadline:
            last = []
            for index in self.live_replicas(group_id):
                host, port = self.spec.replica_address(group_id, index)
                try:
                    status, body = await _http_get(host, port, "/delivered")
                except OSError:
                    # A freshly respawned replica may not be listening yet;
                    # that is "not converged", not an error.
                    break
                if status != 200:
                    break
                last.append(json.loads(body))
            else:
                digests = {d["digest"] for d in last}
                counts = {d["count"] for d in last}
                if (
                    len(digests) == 1
                    and len(counts) == 1
                    and next(iter(counts)) >= min_count
                ):
                    return last[0]
            await asyncio.sleep(0.05)
        raise TimeoutError(
            f"group {group_id} did not converge within {timeout}s: {last}"
        )

    async def delivered_sequence(self, group_id: GroupId, index: int) -> List[str]:
        """One replica's full local delivery sequence (oracle input)."""
        host, port = self.spec.replica_address(group_id, index)
        status, body = await _http_get(host, port, "/delivered?full=1")
        if status != 200:
            raise RuntimeError(f"/delivered on {group_id}/{index} -> {status}")
        return list(json.loads(body)["sequence"])

    async def scrape(self, group_id: GroupId, index: int) -> str:
        """``GET /metrics`` one replica process over real TCP."""
        host, port = self.spec.replica_address(group_id, index)
        status, body = await _http_get(host, port, "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics on {group_id}/{index} -> {status}")
        return body.decode("utf-8")

    # ----------------------------------------------------------------- helpers
    def _allocate_addresses(self) -> None:
        """Pick one free port per replica, then map group ids to replica 0.

        All probe sockets stay open until every port is picked, so the OS
        cannot hand the same port out twice within one allocation pass.
        """
        if self.spec.addresses:
            return
        probes: List[socket.socket] = []
        triples: List[Tuple[Hashable, str, int]] = []
        try:
            for gid, index in self.replica_coords():
                probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                probe.bind((self.spec.host, 0))
                probes.append(probe)
                port = probe.getsockname()[1]
                triples.append((replica_node(gid, index), self.spec.host, port))
        finally:
            for probe in probes:
                probe.close()
        book = {node_id: (host, port) for node_id, host, port in triples}
        for gid in self.spec.groups:
            host, port = book[replica_node(gid, 0)]
            triples.append((gid, host, port))
        self.spec.addresses = triples

    def _spawn(self, group_id: GroupId, index: int) -> None:
        assert self._spec_path is not None, "start() writes the spec first"
        log_dir = os.path.join(self.spec.storage_root, "logs")
        os.makedirs(log_dir, exist_ok=True)
        log_path = os.path.join(log_dir, f"group-{group_id}-replica-{index}.log")
        env = dict(os.environ)
        # The child must import the same ``repro`` this supervisor runs.
        package_root = os.path.dirname(
            os.path.dirname(os.path.abspath(os.path.join(__file__, "..")))
        )
        env["PYTHONPATH"] = package_root + os.pathsep + env.get("PYTHONPATH", "")
        with open(log_path, "ab") as log:
            proc = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.runtime.proc",
                    "--spec",
                    self._spec_path,
                    "--group",
                    str(group_id),
                    "--replica",
                    str(index),
                ],
                stdout=log,
                stderr=log,
                env=env,
            )
        self.processes[(group_id, index)] = proc

    async def _await_ready(
        self, group_id: GroupId, index: int, timeout: float
    ) -> None:
        host, port = self.spec.replica_address(group_id, index)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        proc = self.processes[(group_id, index)]
        while loop.time() < deadline:
            if proc.poll() is not None:
                raise RuntimeError(
                    f"replica {group_id}/{index} exited with {proc.returncode} "
                    f"before becoming ready (see "
                    f"{self.spec.storage_root}/logs/"
                    f"group-{group_id}-replica-{index}.log)"
                )
            try:
                status, _ = await _http_get(host, port, "/ready", timeout=1.0)
                if status == 200:
                    return
            except OSError:
                pass
            await asyncio.sleep(0.05)
        raise TimeoutError(f"replica {group_id}/{index} not ready in {timeout}s")


if __name__ == "__main__":  # pragma: no cover - exercised as a subprocess
    sys.exit(main())
