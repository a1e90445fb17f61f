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
  endpoints) on a single TCP port.  Run one by hand with
  ``python -m repro.runtime --spec spec.json --group G --replica I``.
* :class:`ProcessCluster` — the parent side.  Has the cluster spec
  allocate ports, writes it, forks the children, polls readiness, and
  drives kill/restart through WAL replay and the rejoin catch-up.
* The *template* between them: one interpreter per cluster that imports
  this module and nothing else, then forks (``os.fork()``) every replica
  the cluster spawns, restarts included (:func:`_run_template`).  The whole
  cluster pays one start-up import, and a restart pays none.  The template
  reaps its children and reports each exit status to the supervisor, whose
  :class:`ReplicaProcess` handles answer ``poll()`` and ``wait()`` from
  those reports.

Topology conventions (documented for operators in ``docs/OPERATIONS.md``):

* Replica ``i`` of group ``g`` is the network node ``group-g-replica-i``
  (:func:`~repro.smr.replica.replica_node`) and owns exactly one port.
* A *group-level* destination (an int group id, as used by clients and by
  inter-group protocol traffic) is routed to that group's replica 0 — the
  default multi-Paxos leader.  While replica 0 is down, frames addressed to
  the group are lost until it restarts.  Client resubmission covers a lost
  request; a lost inter-group envelope stops its channel for good: the
  receiver refuses every later envelope from that sender and counts each in
  ``flexcast_channel_gaps_total`` (nothing resends yet).  Order holds; the
  channel's liveness does not.
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
import select
import signal
import socket
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Tuple
from urllib.parse import parse_qs, quote, urlsplit

from ..core.flexcast import FlexCastProtocol
from ..obs import Observability
from ..overlay.base import GroupId
from ..overlay.cdag import CDagOverlay
from ..sim.latencies import LatencyMatrix
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

    ``latencies`` emulates a WAN: one-way milliseconds as matrix rows, with
    group ``g`` and its replicas at site ``g``.  Every replica's transport
    holds each inter-site frame for its delay, the technique the paper uses
    on CloudLab; clients sit at no site and pay none.  ``None`` (the
    default) sends at loopback speed.
    """

    groups: List[GroupId]
    replication: int
    storage_root: str
    host: str = "127.0.0.1"
    addresses: List[Tuple[Hashable, str, int]] = field(default_factory=list)
    latencies: Optional[List[List[float]]] = None

    # ----------------------------------------------------------- derived views
    def address_book(self) -> AddressBook:
        """The spec's addresses as a transport address book."""
        return {node_id: (host, port) for node_id, host, port in self.addresses}

    def replica_ids(self, group_id: GroupId) -> List[str]:
        return [replica_node(group_id, i) for i in range(self.replication)]

    def replica_address(self, group_id: GroupId, index: int) -> Tuple[str, int]:
        return self.address_book()[replica_node(group_id, index)]

    def sites(self) -> Dict[Hashable, int]:
        """The emulated WAN's site of every node: group g's, and its replicas'."""
        return {
            node: gid for gid in self.groups for node in (gid, *self.replica_ids(gid))
        }

    def replica_dir(self, group_id: GroupId, index: int) -> str:
        return os.path.join(
            self.storage_root, f"group-{group_id}", f"replica-{index}"
        )

    def build_protocol(self) -> FlexCastProtocol:
        """The (deterministic) protocol instance every process agrees on."""
        return FlexCastProtocol(CDagOverlay(list(self.groups)))

    def allocate_addresses(self) -> None:
        """Pick one free port per replica, then map group ids to replica 0.

        All probe sockets stay open until every port is picked, so the OS
        cannot hand the same port out twice within one allocation pass.  A
        spec that already has addresses keeps them.
        """
        if self.addresses:
            return
        probes: List[socket.socket] = []
        triples: List[Tuple[Hashable, str, int]] = []
        try:
            for gid in self.groups:
                for node in self.replica_ids(gid):
                    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                    probe.bind((self.host, 0))
                    probes.append(probe)
                    triples.append((node, self.host, probe.getsockname()[1]))
        finally:
            for probe in probes:
                probe.close()
        book = {node_id: (host, port) for node_id, host, port in triples}
        for gid in self.groups:
            host, port = book[replica_node(gid, 0)]
            triples.append((gid, host, port))
        self.addresses = triples

    # -------------------------------------------------------------------- json
    def to_json(self) -> str:
        return json.dumps(
            {
                "groups": list(self.groups),
                "replication": self.replication,
                "storage_root": self.storage_root,
                "host": self.host,
                "addresses": [list(triple) for triple in self.addresses],
                "latencies": self.latencies,
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
            addresses=[tuple(triple) for triple in data["addresses"]],
            latencies=data.get("latencies"),
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
        self.transport = AsyncioTransport(
            node_id=self.replica_id,
            addresses=addresses,
            latencies=None if spec.latencies is None else LatencyMatrix(spec.latencies),
            sites=spec.sites(),
        )
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
    """Child entry point: ``python -m repro.runtime`` runs one replica."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime",
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


# ------------------------------------------------------------------ template
#: What the supervisor runs as a cluster's template: this module and nothing
#: else, so every replica forked from it inherits exactly that heap.
_TEMPLATE_CODE = "from repro.runtime.proc import _run_template; _run_template()"
#: Longest wait for the template's answer to one spawn request; the first
#: one waits for its start-up import.
SPAWN_TIMEOUT_S = 30.0


def _run_template() -> None:
    """The template's loop: fork a replica per request, report every exit.

    A request is one JSON line on stdin, ``[spec_path, group, index,
    log_path]``.  Each is answered on stdout with ``spawned PID``, in order;
    each child reaped is reported as ``exited PID CODE``, ``CODE`` read the
    way :attr:`subprocess.Popen.returncode` reads it.  On stdin's EOF the
    template takes no more requests and exits once its last child is
    reaped.  It runs no event loop and no thread: a child is forked from a
    process with one thread and nothing scheduled.
    """
    wake = os.pipe()
    for fd in wake:
        os.set_blocking(fd, False)
    inherited = {
        sig: signal.getsignal(sig) for sig in (signal.SIGCHLD, signal.SIGINT)
    }
    # A SIGCHLD writes a byte to the wake pipe, so ``select`` returns for it.
    signal.set_wakeup_fd(wake[1])
    signal.signal(signal.SIGCHLD, lambda signum, frame: None)
    # Ctrl-C reaches the whole foreground process group.  The replicas stop
    # on it; the template stays to report their exits.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    children = set()
    pending = b""
    requests_open = True
    while True:
        for pid, code in _reap():
            children.discard(pid)
            _report(f"exited {pid} {code}")
        if not requests_open and not children:
            return
        watched = [0, wake[0]] if requests_open else [wake[0]]
        ready, _, _ = select.select(watched, [], [])
        if wake[0] in ready:
            os.read(wake[0], 4096)  # what is left wakes the next select
        if 0 in ready:
            chunk = os.read(0, 65536)
            requests_open = bool(chunk)
            *lines, pending = (pending + chunk).split(b"\n")
            for line in lines:
                pid = _fork_replica(json.loads(line), wake, inherited)
                children.add(pid)
                _report(f"spawned {pid}")


def _reap() -> List[Tuple[int, int]]:
    """Every exited child of this process: ``(pid, Popen-style returncode)``."""
    reaped = []
    while True:
        try:
            pid, status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return reaped
        if pid == 0:
            return reaped
        reaped.append((pid, os.waitstatus_to_exitcode(status)))


def _report(line: str) -> None:
    try:
        os.write(1, line.encode("ascii") + b"\n")
    except OSError:
        pass  # the supervisor is gone; keep reaping all the same


def _fork_replica(
    request: List[Any], wake: Tuple[int, int], inherited: Dict[int, Any]
) -> int:
    """Fork one replica off the template; returns its pid in the template.

    The child puts back the signal dispositions the template changed,
    closes the template's pipes (its stdin reads ``/dev/null``, its stdout
    and stderr append to the replica's log) and runs the same
    :func:`_serve_child` that ``python -m repro.runtime`` runs.  It never
    returns into the template's loop.
    """
    spec_path, group_id, index, log_path = request
    pid = os.fork()
    if pid:
        return pid
    code = 1
    # Whatever happens here ends in ``os._exit``: an exception that
    # unwound into the template's loop would make a second template.
    try:
        signal.set_wakeup_fd(-1)
        for sig, handler in inherited.items():
            signal.signal(sig, handler)
        for fd in wake:
            os.close(fd)
        log = os.open(log_path, os.O_WRONLY | os.O_APPEND)
        null = os.open(os.devnull, os.O_RDONLY)
        os.dup2(null, 0)
        os.dup2(log, 1)
        os.dup2(log, 2)
        os.close(null)
        os.close(log)
        asyncio.run(_serve_child(spec_path, group_id, index))
        code = 0
    except Exception:
        traceback.print_exc()
    finally:
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except (OSError, ValueError):
                pass
        os._exit(code)


def _pid_gone(pid: int) -> bool:
    """Whether no process runs as ``pid``: none exists, or a zombie does."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            state = handle.read().rsplit(b")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state in (b"Z", b"X")


class _Template:
    """The supervisor's end of one cluster's template interpreter.

    Requests go down the template's stdin; its reports come up its stdout,
    a pipe read without blocking, so a handle's ``poll()`` costs one
    ``read`` that usually finds nothing.  Its stderr is the supervisor's.
    """

    def __init__(self, env: Dict[str, str]) -> None:
        self.process = subprocess.Popen(
            [sys.executable, "-c", _TEMPLATE_CODE],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
        )
        assert self.process.stdin is not None and self.process.stdout is not None
        self._stdin = self.process.stdin
        self._stdout = self.process.stdout
        os.set_blocking(self._stdout.fileno(), False)
        self._partial = b""
        self._spawned: List[int] = []
        #: Exit codes of the reaped children, by pid.
        self.exit_codes: Dict[int, int] = {}
        #: False once no report can come: the template's stdout is at EOF.
        self.reporting = True

    def spawn(self, request: List[Any]) -> int:
        """Ask for one replica; returns its pid."""
        try:
            self._stdin.write(json.dumps(request).encode("utf-8") + b"\n")
            self._stdin.flush()
        except (OSError, ValueError) as exc:
            raise RuntimeError(
                f"the cluster's template (pid {self.process.pid}) is gone"
            ) from exc
        deadline = time.monotonic() + SPAWN_TIMEOUT_S
        while not self._spawned:
            remaining = deadline - time.monotonic()
            if not self.reporting or remaining <= 0:
                raise RuntimeError(
                    f"the cluster's template (pid {self.process.pid}) forked no replica "
                    f"(exit status {self.process.poll()})"
                )
            self.read(remaining)
        return self._spawned.pop(0)

    def read(self, timeout: float = 0.0) -> None:
        """Take in every report written so far, waiting up to ``timeout``
        for the first."""
        if not self.reporting:
            return
        fd = self._stdout.fileno()
        if timeout > 0:
            select.select([fd], [], [], timeout)
        while True:
            try:
                chunk = os.read(fd, 65536)
            except BlockingIOError:
                return
            if not chunk:
                self.reporting = False
                return
            *lines, self._partial = (self._partial + chunk).split(b"\n")
            for line in lines:
                kind, pid, *code = line.split()
                if kind == b"spawned":
                    self._spawned.append(int(pid))
                else:
                    self.exit_codes[int(pid)] = int(code[0])

    def close(self, timeout: float = 5.0) -> None:
        """End the template: close its stdin, wait for it, keep its reports."""
        try:
            self._stdin.close()
        except OSError:
            pass  # it died with requests unread
        try:
            self.process.wait(timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.read()
        self.reporting = False
        self._stdout.close()


class ReplicaProcess:
    """One forked replica as its supervisor sees it.

    The part of :class:`subprocess.Popen` the supervisor and its callers use:
    ``pid``, ``returncode``, ``poll()``, ``wait(timeout)`` (which raises
    :class:`subprocess.TimeoutExpired`), ``send_signal()``, ``terminate()``
    and ``kill()``.  The exit status is the one the template reports when it
    reaps the child; a handle keeps answering after the template has ended.
    Once no report can come (the template died first), a handle reads its
    pid being gone as an exit with status 0 — what :mod:`subprocess` reads
    for a child it cannot wait for.
    """

    def __init__(self, template: _Template, pid: int, name: str) -> None:
        self._template = template
        self.pid = pid
        self.name = name
        self.returncode: Optional[int] = None

    def poll(self) -> Optional[int]:
        if self.returncode is None:
            self._template.read()
            code = self._template.exit_codes.get(self.pid)
            if code is None and not self._template.reporting and _pid_gone(self.pid):
                code = 0
            self.returncode = code
        return self.returncode

    def wait(self, timeout: Optional[float] = None) -> int:
        deadline = None if timeout is None else time.monotonic() + timeout
        while (code := self.poll()) is None:
            pause = 0.05
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise subprocess.TimeoutExpired(self.name, timeout or 0.0)
                pause = min(pause, remaining)
            if self._template.reporting:
                self._template.read(pause)
            else:
                time.sleep(pause)
        return code

    def send_signal(self, sig: int) -> None:
        if self.poll() is None:
            try:
                os.kill(self.pid, sig)
            except ProcessLookupError:
                pass

    def terminate(self) -> None:
        self.send_signal(signal.SIGTERM)

    def kill(self) -> None:
        self.send_signal(signal.SIGKILL)


# --------------------------------------------------------------- parent side
class ProcessCluster:
    """Supervisor for N groups × M replicas running as real OS processes.

    Startup ordering is a non-issue by construction: every port is allocated
    and written into the spec *before* the first child starts, children do
    not talk to each other until traffic arrives, and the supervisor gates
    :meth:`start` on every child's ``/ready`` endpoint.  Shutdown is
    graceful-first (``/stop``), escalating to SIGTERM then SIGKILL.

    The children are not started as interpreters of their own: :meth:`start`
    starts the cluster's template, which imports this module once, and
    every replica (restarts too) is forked from it.  :attr:`processes` maps
    ``(group, index)`` to a :class:`ReplicaProcess` handle.  :meth:`stop`
    ends the template after the replicas; the template also ends on its
    own once the supervisor is gone and its last replica has exited.

    Crash handling follows the PR-6/PR-8 model, driven over the admin plane:
    :meth:`kill_replica` SIGKILLs one child and tells its group's survivors
    to mark it failed; :meth:`restart_replica` respawns it from its WALs,
    waits for readiness and triggers :meth:`GroupReplica.rejoin` catch-up:
    the log alone rebuilds its state.
    :meth:`await_group_convergence` then polls the survivors' and
    the rejoiner's ``/delivered`` digests until they agree.
    """

    def __init__(
        self,
        groups: int = 2,
        replication: int = 3,
        storage_root: Optional[str] = None,
        host: str = "127.0.0.1",
        latencies: Optional[List[List[float]]] = None,
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
            latencies=latencies,
        )
        self.protocol = self.spec.build_protocol()
        self.processes: Dict[Tuple[GroupId, int], ReplicaProcess] = {}
        self.clients: List[AsyncMulticastClient] = []
        self._spec_path: Optional[str] = None
        self._template: Optional[_Template] = None

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

    # --------------------------------------------------------------- lifecycle
    async def start(self, ready_timeout: float = 30.0) -> None:
        """Allocate ports, write the spec, start the template, fork every
        replica from it, await ready."""
        self.spec.allocate_addresses()
        os.makedirs(self.spec.storage_root, exist_ok=True)
        self._spec_path = os.path.join(self.spec.storage_root, "spec.json")
        with open(self._spec_path, "w", encoding="utf-8") as handle:
            handle.write(self.spec.to_json())
        env = dict(os.environ)
        # The template must import the same ``repro`` this supervisor runs.
        package_root = os.path.dirname(
            os.path.dirname(os.path.abspath(os.path.join(__file__, "..")))
        )
        env["PYTHONPATH"] = package_root + os.pathsep + env.get("PYTHONPATH", "")
        self._template = _Template(env)
        for gid, index in self.replica_coords():
            self._spawn(gid, index)
        await asyncio.gather(
            *(
                self._await_ready(gid, index, ready_timeout)
                for gid, index in self.replica_coords()
            )
        )

    async def stop(self) -> None:
        """Stop clients, then every replica process (graceful, then
        forceful), then the template."""
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
        if self._template is not None:
            self._template.close()
            self._template = None

    async def __aenter__(self) -> "ProcessCluster":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # ----------------------------------------------------------------- clients
    async def new_client(self, client_id: str) -> AsyncMulticastClient:
        """A started client, stopped with the cluster.

        It routes requests by group id (→ the group's replica 0, the default
        leader); its start announces it to every replica, so any of them —
        one that takes over leadership later too — can answer it.
        """
        client = AsyncMulticastClient(
            client_id=client_id,
            protocol=self.protocol,
            addresses=self.spec.address_book(),
        )
        await client.start()
        self.clients.append(client)
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
        """Respawn a killed replica from its WALs and drive the rejoin path:
        it replays its log and catches up the decided suffix from its peers."""
        self._spawn(group_id, index)
        await self._await_ready(group_id, index, ready_timeout)
        host, port = self.spec.replica_address(group_id, index)
        await _http_get(host, port, "/admin/rejoin")

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
    def _spawn(self, group_id: GroupId, index: int) -> None:
        """Have the template fork replica ``index`` of group ``group_id``.

        The child appends its stdout and stderr to
        ``<storage_root>/logs/group-G-replica-I.log``, which is made here,
        so the log exists even when the child dies before it runs anything.
        """
        assert self._template is not None, "start() starts the template first"
        log_dir = os.path.join(self.spec.storage_root, "logs")
        os.makedirs(log_dir, exist_ok=True)
        log_path = os.path.join(log_dir, f"group-{group_id}-replica-{index}.log")
        open(log_path, "ab").close()
        pid = self._template.spawn([self._spec_path, group_id, index, log_path])
        self.processes[(group_id, index)] = ReplicaProcess(
            self._template, pid, replica_node(group_id, index)
        )

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
            # A forked replica listens some 10–50 ms after its fork: a
            # refused connect is cheap, a coarse step is a share of start().
            await asyncio.sleep(0.01)
        raise TimeoutError(f"replica {group_id}/{index} not ready in {timeout}s")
