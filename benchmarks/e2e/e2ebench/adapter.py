"""The harness's only door into ``repro``.

Every other module of the benchmark speaks in plain values (ids, tuples,
strings, dicts); this one turns them into calls on the public surface
ISSUE 11 lists, so a later change that refactors the program's internals
edits nothing here unless it changes that surface.

What is used, and nothing else: ``ProcessCluster`` / ``ClusterSpec`` /
``ReplicaServer`` and the HTTP plane they serve (``/ready``, ``/metrics``,
``/delivered``), ``AsyncioTransport``, the frame codec, ``BatchingClient``,
the message envelopes, ``replica_node``, ``run_experiment`` with
``flexcast_config``, and ``check_trace`` over a ``RecordingSink``.  The
classes named in :func:`trace_targets` are only *named* here; the tracing
module wraps them.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.checker import check_trace
from repro.core.batching import BatchingClient
from repro.core.message import ClientResponse, Message, NodeHello
from repro.experiments.config import flexcast_config
from repro.experiments.runner import run_experiment
from repro.protocols.base import RecordingSink
from repro.runtime.codec import CodecError, decode_frame, encode_frame, read_frame
from repro.runtime.proc import ClusterSpec, ProcessCluster, ReplicaServer
from repro.runtime.transport import AsyncioTransport
from repro.smr.replica import replica_node

GROUPS = 2
REPLICATION = 3

#: Every multicast of the harness carries this sender id, so one NodeHello
#: per replica is enough for all logical clients (they are ids, not sockets).
CLIENT_ID = "e2e-client"


# ------------------------------------------------------------------ clusters
def process_cluster(storage_root: str) -> ProcessCluster:
    """The real thing: 2 groups x 3 replicas, one OS process each."""
    return ProcessCluster(GROUPS, REPLICATION, storage_root=storage_root)


class InProcessCluster:
    """The same six ``ReplicaServer`` objects, hosted in the caller's loop.

    Used by the traced run only: spans can be recorded around the layers'
    public callables because they all run in this process.  Exposes the
    subset of ``ProcessCluster`` the harness reads (``spec``, ``protocol``,
    ``processes``, ``start``, ``stop``).
    """

    def __init__(self, storage_root: str) -> None:
        self.spec = ClusterSpec(
            groups=list(range(GROUPS)),
            replication=REPLICATION,
            storage_root=storage_root,
        )
        self.protocol = self.spec.build_protocol()
        self.processes: Dict[Tuple[int, int], Any] = {}
        self._servers: List[ReplicaServer] = []

    async def start(self) -> None:
        host = self.spec.host
        probes = []
        triples: List[Tuple[Any, str, int]] = []
        try:
            for gid in self.spec.groups:
                for index in range(REPLICATION):
                    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                    probe.bind((host, 0))
                    probes.append(probe)
                    triples.append(
                        (replica_node(gid, index), host, probe.getsockname()[1])
                    )
        finally:
            for probe in probes:
                probe.close()
        for gid in self.spec.groups:
            triples.append((gid, host, triples[gid * REPLICATION][2]))
        self.spec.addresses = triples
        for gid in self.spec.groups:
            for index in range(REPLICATION):
                server = ReplicaServer(self.spec, gid, index)
                self._servers.append(server)
                await server.start()

    async def stop(self) -> None:
        servers, self._servers = self._servers, []
        for server in servers:
            await server.stop()
            await server.transport.aclose()


def replica_coords() -> List[Tuple[int, int]]:
    return [(g, i) for g in range(GROUPS) for i in range(REPLICATION)]


# ---------------------------------------------------------------- HTTP plane
async def http_get(address: Tuple[str, int], path: str, timeout: float = 10.0) -> bytes:
    """One HTTP/1.0 GET against a replica's admin plane; raises on non-200."""
    reader, writer = await asyncio.open_connection(*address)
    try:
        writer.write(f"GET {path} HTTP/1.0\r\nHost: {address[0]}\r\n\r\n".encode())
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(-1), timeout)
    finally:
        writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    status = head.split(b"\r\n", 1)[0].split(b" ")
    if len(status) < 2 or status[1] != b"200":
        raise RuntimeError(f"GET {path} on {address} -> {head[:40]!r}")
    return body


async def delivered(cluster: Any, group: int, index: int, full: bool = False) -> Dict[str, Any]:
    """``/delivered`` of one replica: ``{count, digest[, sequence]}``."""
    path = "/delivered?full=1" if full else "/delivered"
    return json.loads(await http_get(cluster.spec.replica_address(group, index), path))


async def scrape(cluster: Any, group: int, index: int) -> str:
    """``/metrics`` of one replica (Prometheus text)."""
    body = await http_get(cluster.spec.replica_address(group, index), "/metrics")
    return body.decode("utf-8")


# -------------------------------------------------------------------- ingress
class Ingress:
    """Request and response plane of the load generator.

    Requests leave through one ``BatchingClient`` over one pooled connection
    per group leader; responses arrive on one listening port.
    """

    def __init__(self, cluster: Any, max_batch: int, max_delay_ms: float) -> None:
        #: Called with ``(msg_id, is_flush)`` when a message's last
        #: destination has responded.
        self.on_complete: Callable[[str, bool], None] = lambda msg_id, is_flush: None
        #: Optional: called with the member ids of every request put on the wire.
        self.on_dispatch: Optional[Callable[[Sequence[str]], None]] = None
        self._loop = asyncio.get_running_loop()
        self._server: Optional[asyncio.AbstractServer] = None
        self._flushes = 0
        self.transport = AsyncioTransport(
            node_id="e2e-driver", addresses=cluster.spec.address_book(), pool=True
        )
        self.batcher = BatchingClient(
            client_id="e2e-ingress",
            protocol=cluster.protocol,
            send_request=self._send,
            clock=lambda: self._loop.time() * 1000.0,
            max_batch=max_batch,
            max_delay_ms=max_delay_ms,
            schedule=lambda ms, fn: self._loop.call_later(ms / 1000.0, fn),
        )

    async def open(self) -> None:
        """Listen for responses and announce the client id to every replica."""
        self._server = await asyncio.start_server(self._serve, "127.0.0.1", 0)
        host, port = self._server.sockets[0].getsockname()[:2]
        hello = NodeHello(node_id=CLIENT_ID, host=host, port=port)
        for gid, index in replica_coords():
            self.transport.send(replica_node(gid, index), hello)
        # The hello must be registered before the first response is sent;
        # frames on one pooled connection stay in order, but followers get
        # theirs on connections of their own.
        await asyncio.sleep(0.1)

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.transport.aclose()

    def _send(self, group: int, request: Any) -> None:
        if self.on_dispatch is not None:
            message = request.message
            members = message.members or (message,)
            self.on_dispatch([m.msg_id for m in members])
        self.transport.send(group, request)

    async def _serve(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    _, envelope = await read_frame(reader)
                except (asyncio.IncompleteReadError, CodecError, ConnectionError):
                    break
                if isinstance(envelope, ClientResponse):
                    self.on_response(envelope)
        finally:
            writer.close()

    def on_response(self, response: ClientResponse) -> None:
        call = self.batcher.on_response(response.group, response.msg_id)
        if call is not None:
            self.on_complete(call.message.msg_id, call.message.is_flush)

    # ---------------------------------------------------------------- sending
    def submit(self, msg_id: str, dst: Sequence[int], payload: str) -> None:
        self.batcher.submit(
            Message.create(dst, sender=CLIENT_ID, payload=payload,
                           payload_bytes=len(payload), msg_id=msg_id)
        )

    def submit_flush(self) -> Tuple[str, Tuple[int, ...]]:
        """Multicast one GC flush to every group; returns (id, destinations)."""
        self._flushes += 1
        msg_id, groups = f"gc{self._flushes}", tuple(range(GROUPS))
        self.batcher.submit(
            Message.create(groups, sender=CLIENT_ID, msg_id=msg_id,
                           payload_bytes=0, is_flush=True)
        )
        return msg_id, groups

    def flush_windows(self) -> None:
        self.batcher.flush()

    def trim(self) -> None:
        """Drop the batcher's per-call logs (they grow with every message)."""
        self.batcher.completed.clear()
        self.batcher.batch_log.clear()

    @property
    def batch_stats(self) -> Dict[str, int]:
        return dict(self.batcher.stats)


# ------------------------------------------------------------------- oracle
def order_violations(
    sequences: Dict[int, List[str]], issued: Iterable[Tuple[str, Sequence[int], bool]]
) -> List[str]:
    """Replay per-group delivery sequences through the program's checker.

    ``issued`` is every multicast made, GC flushes included, as
    ``(msg_id, destinations, is_flush)``.
    """
    messages = {
        msg_id: Message.create(dst, msg_id=msg_id, is_flush=is_flush)
        for msg_id, dst, is_flush in issued
    }
    sink = RecordingSink()
    for group, sequence in sequences.items():
        for msg_id in sequence:
            message = messages.get(msg_id)
            if message is None:
                message = Message.create([group], msg_id=msg_id)
            sink(group, message)
    report = check_trace(sink, messages.values(), expect_all_delivered=True)
    return [str(v) for v in report.violations]


# ---------------------------------------------------------------------- sim
def import_paths() -> Tuple[str, str]:
    """The two ``sys.path`` entries a fresh interpreter needs to import this
    module: the program's source root and the harness's own directory."""
    import repro

    program = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    harness = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return program, harness


def run_sim(seed: int, duration_ms: float) -> Dict[str, Any]:
    """One paper-shaped simulator run: 12 groups, overlay O1, gTPC-C."""
    result = run_experiment(
        flexcast_config(
            overlay="O1", locality=0.90, num_clients=48,
            duration_ms=duration_ms, global_only=True, seed=seed,
        )
    )
    return {
        "issued": result.issued,
        "completed": result.completed,
        "latencies_ms": [
            t.latencies_by_arrival[-1]
            for t in result.raw_latency.transactions
            if t.latencies_by_arrival
        ],
    }


# ------------------------------------------------------------------ tracing
def trace_targets() -> List[Tuple[Any, str, str]]:
    """``(owner, attribute, span name)`` of every callable the traced run wraps.

    Owners are resolved here so a moved or renamed target is one edit in one
    file; a target that no longer exists is reported as ``(None, path, name)``
    and the tracer drops it with a warning.
    """
    import importlib

    wanted = [
        ("repro.runtime.proc", "ReplicaServer", "handle_frame", "proc.handle_frame"),
        ("repro.smr.replica", "GroupReplica", "on_message", "smr.on_message"),
        ("repro.core.flexcast", "FlexCastGroup", "on_envelope", "flexcast.on_envelope"),
        ("repro.storage.file", "FileWAL", "append", "storage.append"),
        ("repro.storage.file", "FileWAL", "sync", "storage.fsync"),
        ("repro.runtime.transport", "AsyncioTransport", "send", "transport.send"),
        ("repro.sim.events", "EventLoop", "step", "sim.step"),
        ("repro.core.batching", "BatchingClient", "submit", "batching.submit"),
        # Module-level codec functions, once per name that importers hold.
        ("repro.runtime.codec", None, "encode_frame", "codec.encode"),
        ("repro.runtime.codec", None, "decode_frame", "codec.decode"),
        ("repro.runtime.transport", None, "encode_frame", "codec.encode"),
    ]
    targets: List[Tuple[Any, str, str]] = []
    for module_name, class_name, attribute, span in wanted:
        path = ".".join(p for p in (module_name, class_name, attribute) if p)
        try:
            owner: Any = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            getattr(owner, attribute)
        except (ImportError, AttributeError):
            targets.append((None, path, span))
            continue
        targets.append((owner, attribute, span))
    try:
        history = getattr(importlib.import_module("repro.core.history"), "History")
    except (ImportError, AttributeError):
        targets.append((None, "repro.core.history.History", "history"))
    else:
        # Public methods, wrapped by name: a rename costs one span name, not
        # the layer's number.
        for name, member in vars(history).items():
            if not name.startswith("_") and callable(member) and not isinstance(
                member, (classmethod, staticmethod, property)
            ):
                targets.append((history, name, f"history.{name}"))
    return targets


def codec_roundtrip(bodies: Sequence[bytes]) -> Tuple[Callable[[], None], Callable[[], None]]:
    """Closures that decode, and re-encode, a list of captured frame bodies."""
    decoded = [decode_frame(body) for body in bodies]

    def decode_all() -> None:
        for body in bodies:
            decode_frame(body)

    def encode_all() -> None:
        for sender, envelope in decoded:
            encode_frame(sender, envelope)

    return decode_all, encode_all


def frame_message_id(envelope: Any) -> Optional[str]:
    """The multicast id an envelope carries, if it carries one."""
    message = getattr(envelope, "message", None)
    return getattr(message, "msg_id", None) or getattr(envelope, "msg_id", None)

