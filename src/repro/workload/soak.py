"""Soak harness: thousands of clients, millions of messages, one verdict.

The micro benchmarks (``benchmarks/run_bench.py``) measure single operations
in isolation; the fuzz harness explores schedules under fault injection.
What neither can see is *sustained* behaviour — backpressure, convoy effects,
GC keeping up with ingest, WAL growth, queue-depth watermarks — which only
emerges when a real deployment runs at volume for minutes.  This module
drives exactly that against the process-level cluster runtime
(:mod:`repro.runtime.proc`): real OS processes, real TCP, per-replica WALs.

Shape of the drive:

* Thousands of *logical clients* issue messages in a closed loop with a
  small per-client credit, so offered load adapts to the cluster instead of
  overrunning it (the paper's closed-loop client model, §5.3).
* Dispatch funnels through one shared :class:`~repro.core.batching.BatchingClient`
  — windows are keyed by destination set, so the batcher acts as the ingress
  proxy coalescing same-destination traffic across clients (the PR-5
  batching layer doing the job it was built for).
* Every message is watched by a :class:`~repro.workload.clients.BoundedResubmitter`;
  re-submissions ride the idempotent path, so loss around a fail-over is
  healed, bounded, and *counted*.
* A periodic flush multicast (the PR-4 GC coordinator pattern) keeps every
  group's history bounded for the whole run.
* Optionally, one replica is SIGKILL'd mid-run and later restarted through
  the rejoin + snapshot path, so the soak also exercises recovery under
  load.

The verdict is the **oracle**: every issued message completed (a response
from every destination), no resubmitter gave up, and every group's replicas
agree byte-for-byte on their delivery sequence.  ``run_soak`` returns a
JSON-able report (the ``BENCH_soak.json`` schema documented in DESIGN.md).
"""

from __future__ import annotations

import asyncio
import os
import platform
import random
import subprocess
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.batching import BatchingClient
from ..core.message import ClientRequest, ClientResponse, Message, NodeHello
from ..obs import Histogram
from ..runtime.node import FrameServer
from ..runtime.proc import ProcessCluster
from ..runtime.transport import AddressBook, AsyncioTransport
from ..smr.replica import replica_node
from .clients import BoundedResubmitter


@dataclass
class SoakConfig:
    """Knobs for one soak run (all deterministic given ``seed``)."""

    #: Cluster topology.
    groups: int = 2
    replication: int = 3
    hybrid: bool = False
    storage_root: Optional[str] = None

    #: Total messages to push through the cluster.
    messages: int = 1_000_000
    #: Logical clients issuing in a closed loop ...
    clients: int = 2000
    #: ... each keeping this many messages outstanding.
    inflight_per_client: int = 4
    #: Fraction of messages addressed to more than one group.
    global_fraction: float = 0.2
    payload_bytes: int = 64

    #: Ingress batching window (shared across clients, keyed by dst set).
    max_batch: int = 128
    max_delay_ms: float = 10.0

    #: Bounded resubmission per message.  The timeout must sit well above
    #: worst-case *queueing* latency, not just network latency: a closed
    #: loop keeps ``clients * inflight_per_client`` messages outstanding,
    #: so on a machine sustaining T msg/s the median wait is already
    #: ``outstanding / T`` seconds — a tight timeout turns a merely loaded
    #: run into a resubmission storm that loads it further.
    timeout_ms: float = 30_000.0
    max_retries: int = 6

    #: GC flush multicast cadence (0 disables; history then grows O(run)).
    flush_every_ms: float = 500.0

    #: Watermark sampling cadence for the ``/metrics`` scrapes.
    sample_every_s: float = 2.0

    #: Optional mid-run SIGKILL of one replica (fraction of completed
    #: messages at which to inject / recover; ``None`` disables).
    kill_at: Optional[float] = None
    restart_at: Optional[float] = None
    kill_target: Tuple[int, int] = (0, 2)

    #: Full-sequence oracle (fetch + cross-check every delivery id).  Costly
    #: at millions of messages; ``None`` auto-enables for runs <= 100k.
    deep_check: Optional[bool] = None

    seed: int = 42
    ready_timeout: float = 60.0
    drain_timeout: float = 300.0
    #: Ready timeout for the *restarted* victim specifically: unlike a cold
    #: start it must replay its whole commit log first (O(messages delivered
    #: before the kill)), while competing with the live soak for CPU — at 1M
    #: messages with the default kill point that is ~200k entries.
    restart_ready_timeout: float = 600.0
    #: How long the post-drain verification waits for every live replica of
    #: a group to agree — the rejoined victim re-applies the whole decided
    #: suffix it missed (O(messages between kill and drain)).
    convergence_timeout: float = 360.0

    def resolved_deep_check(self) -> bool:
        if self.deep_check is not None:
            return self.deep_check
        return self.messages <= 100_000


#: Gauges whose running maximum the monitor records as watermarks.
_WATERMARK_GAUGES = (
    "flexcast_queue_depth",
    "flexcast_leaked_pending_entries",
    "history_vertices",
    "smr_pending_commands",
    "server_delivered",
)


def _metric_values(text: str, name: str) -> List[float]:
    """All sample values of ``name`` in a Prometheus text exposition."""
    values: List[float] = []
    for line in text.splitlines():
        if not line.startswith(name):
            continue
        rest = line[len(name):]
        if rest[:1] not in ("{", " "):
            continue  # a longer metric name sharing the prefix
        values.append(float(line.rsplit(" ", 1)[1]))
    return values


def _git(*args: str) -> Optional[str]:
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))
    try:
        done = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance() -> Dict[str, Any]:
    """Environment metadata, shared by BENCH_soak.json and BENCH_micro.json.

    ``dirty`` is true when the checkout held uncommitted changes and
    ``git_sha`` is null outside a checkout: neither can pass for a commit.
    """
    status = _git("status", "--porcelain")
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_sha": _git("rev-parse", "HEAD") or None,
        "dirty": bool(status) if status is not None else None,
        "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


class _ResponsePlane(FrameServer):
    """The driver's one port: every logical client's responses arrive here,
    and every request leaves through its transport."""

    def __init__(
        self, addresses: AddressBook, on_response: Callable[[ClientResponse], None]
    ) -> None:
        super().__init__()
        self.transport = AsyncioTransport(node_id="soak-driver", addresses=addresses)
        self._on_response = on_response

    def handle_frame(self, sender: Any, envelope: Any) -> None:
        if isinstance(envelope, ClientResponse):
            self._on_response(envelope)


class SoakHarness:
    """One soak run against a freshly started :class:`ProcessCluster`."""

    def __init__(self, config: SoakConfig) -> None:
        self.config = config
        self.cluster = ProcessCluster(
            groups=config.groups,
            replication=config.replication,
            storage_root=config.storage_root,
            hybrid=config.hybrid,
        )
        self._rng = random.Random(config.seed)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._plane: Optional[_ResponsePlane] = None
        self._batcher: Optional[BatchingClient] = None
        self._resubmitter: Optional[BoundedResubmitter] = None

        #: msg_id -> logical client index (doubles as the settled check).
        self._owners: Dict[str, int] = {}
        self._issued = 0
        self._completed = 0
        self._per_group_sent: Dict[int, int] = {g: 0 for g in range(config.groups)}
        self._flush_ids: List[str] = []
        self._stopping = False

        #: Client-perceived latency (ms): last destination's response.
        self.delivery_hist = Histogram(
            "soak_delivery_latency_ms", "End-to-end delivery latency."
        )
        #: ... and the first destination's response (the paper's 1st-response).
        self.first_hist = Histogram(
            "soak_first_response_latency_ms", "First-destination latency."
        )
        self._watermarks: Dict[str, float] = {g: 0.0 for g in _WATERMARK_GAUGES}
        self._events: List[Dict[str, Any]] = []
        self.violations: List[str] = []

    # ------------------------------------------------------------------ wiring
    def _now_ms(self) -> float:
        assert self._loop is not None
        return self._loop.time() * 1000.0

    def _schedule(self, delay_ms: float, callback) -> Any:
        assert self._loop is not None
        return self._loop.call_later(delay_ms / 1000.0, callback)

    def _announce_clients(self, host: str, port: int) -> None:
        """NodeHello every logical client id (and the flusher) to every
        replica — they all answer on the one response-plane port."""
        assert self._plane is not None
        cfg = self.config
        node_ids = [f"soak-client-{i}" for i in range(cfg.clients)]
        node_ids.append("soak-flush")
        for gid in range(cfg.groups):
            for index in range(cfg.replication):
                rid = replica_node(gid, index)
                for node_id in node_ids:
                    self._plane.transport.send(
                        rid, NodeHello(node_id=node_id, host=host, port=port)
                    )

    # ----------------------------------------------------------------- issuing
    def _pick_destinations(self) -> Sequence[int]:
        cfg = self.config
        if cfg.groups > 1 and self._rng.random() < cfg.global_fraction:
            count = self._rng.randint(2, cfg.groups)
            return self._rng.sample(range(cfg.groups), count)
        return [self._rng.randrange(cfg.groups)]

    def _issue_for(self, client_index: int) -> None:
        cfg = self.config
        if self._stopping or self._issued >= cfg.messages:
            return
        assert self._batcher is not None and self._resubmitter is not None
        self._issued += 1
        message = Message.create(
            destinations=self._pick_destinations(),
            sender=f"soak-client-{client_index}",
            payload_bytes=cfg.payload_bytes,
        )
        for gid in message.dst:
            self._per_group_sent[gid] += 1
        self._owners[message.msg_id] = client_index
        self._batcher.submit(message)
        self._resubmitter.track(message.msg_id)

    def _on_response(self, response: ClientResponse) -> None:
        assert self._batcher is not None
        call = self._batcher.on_response(response.group, response.msg_id)
        if call is None:
            return
        owner = self._owners.pop(call.message.msg_id, None)
        self._completed += 1
        latencies = call.latencies_by_arrival()
        if latencies:
            self.first_hist.observe(latencies[0])
            self.delivery_hist.observe(latencies[-1])
        # Bound driver memory: the batcher's completed list and batch log
        # grow per call/batch and are not needed for the oracle.
        if len(self._batcher.completed) > 10_000:
            self._batcher.completed.clear()
        if len(self._batcher.batch_log) > 10_000:
            self._batcher.batch_log.clear()
        if owner is not None:
            self._issue_for(owner)

    def _resend(self, msg_id: str) -> None:
        assert self._batcher is not None
        call = self._batcher.inflight.get(msg_id)
        if call is not None:
            # Re-dispatch through the batching window; the submission path
            # is idempotent end to end, so over-delivery is absorbed.
            self._batcher._dispatch(call.message)

    # -------------------------------------------------------------- background
    async def _flush_loop(self) -> None:
        """Periodic GC flush: an ``is_flush`` multicast to all groups."""
        cfg = self.config
        assert self._plane is not None
        all_groups = list(range(cfg.groups))
        while not self._stopping:
            await asyncio.sleep(cfg.flush_every_ms / 1000.0)
            message = Message.create(
                destinations=all_groups, sender="soak-flush", is_flush=True
            )
            self._flush_ids.append(message.msg_id)
            request = ClientRequest(message=message)
            for entry in self.cluster.protocol.entry_groups(message):
                try:
                    self._plane.transport.send(entry, request)
                except KeyError:  # pragma: no cover - book is pre-populated
                    pass

    async def _sample_watermarks(self) -> None:
        """Scrape every live replica once; keep the running gauge maxima."""
        for gid in range(self.config.groups):
            for index in self.cluster.live_replicas(gid):
                try:
                    text = await self.cluster.scrape(gid, index)
                except (OSError, RuntimeError):
                    continue
                for name in _WATERMARK_GAUGES:
                    values = _metric_values(text, name)
                    if values:
                        self._watermarks[name] = max(
                            self._watermarks[name], max(values)
                        )

    async def _monitor_loop(self) -> None:
        """Periodic watermark sampling for the duration of the run."""
        while not self._stopping:
            await asyncio.sleep(self.config.sample_every_s)
            await self._sample_watermarks()

    async def _failure_injector(self) -> None:
        """SIGKILL one replica at ``kill_at`` and restart it at ``restart_at``."""
        cfg = self.config
        if cfg.kill_at is None:
            return
        gid, index = cfg.kill_target
        kill_threshold = int(cfg.kill_at * cfg.messages)
        while not self._stopping and self._completed < kill_threshold:
            await asyncio.sleep(0.05)
        if self._stopping:
            return
        await self.cluster.kill_replica(gid, index)
        self._events.append(
            {"event": "kill", "replica": [gid, index], "at_completed": self._completed}
        )
        if cfg.restart_at is None:
            return
        restart_threshold = int(cfg.restart_at * cfg.messages)
        while not self._stopping and self._completed < restart_threshold:
            await asyncio.sleep(0.05)
        await self.cluster.restart_replica(
            gid, index, ready_timeout=cfg.restart_ready_timeout
        )
        self._events.append(
            {
                "event": "restart",
                "replica": [gid, index],
                "at_completed": self._completed,
            }
        )

    # --------------------------------------------------------------------- run
    async def run(self) -> Dict[str, Any]:
        """Start the cluster, push the configured load, verify, report."""
        cfg = self.config
        self._loop = asyncio.get_running_loop()
        started_wall = time.time()
        await self.cluster.start(ready_timeout=cfg.ready_timeout)
        try:
            return await self._drive(started_wall)
        finally:
            self._stopping = True
            if self._plane is not None:
                await self._plane.stop()
            await self.cluster.stop()

    async def _drive(self, started_wall: float) -> Dict[str, Any]:
        cfg = self.config
        self._plane = _ResponsePlane(
            self.cluster.spec.address_book(), self._on_response
        )
        host, port = await self._plane.start()
        self._announce_clients(host, port)
        await asyncio.sleep(0.1)

        self._batcher = BatchingClient(
            client_id="soak-ingress",
            protocol=self.cluster.protocol,
            send_request=self._plane.transport.send,
            clock=self._now_ms,
            max_batch=cfg.max_batch,
            max_delay_ms=cfg.max_delay_ms,
            schedule=self._schedule,
        )
        self._resubmitter = BoundedResubmitter(
            resend=self._resend,
            is_settled=lambda msg_id: msg_id not in self._owners,
            schedule=self._schedule,
            timeout_ms=cfg.timeout_ms,
            max_retries=cfg.max_retries,
        )

        background = [asyncio.create_task(self._monitor_loop())]
        injector = asyncio.create_task(self._failure_injector())
        if cfg.flush_every_ms > 0:
            background.append(asyncio.create_task(self._flush_loop()))

        bench_started = time.perf_counter()
        # Prime the closed loop: every logical client gets its credit.
        for client_index in range(cfg.clients):
            for _ in range(cfg.inflight_per_client):
                self._issue_for(client_index)

        # Completions re-issue until the budget is spent, then the remaining
        # in-flight calls drain.  The timeout bounds *stall* time (no
        # completion progress), not total wall clock — a long healthy run
        # must not be cut short, a wedged one must not hang CI.
        last_progress = (self._completed, self._loop.time())
        while self._owners:
            if self._issued >= cfg.messages:
                self._batcher.flush()
            await asyncio.sleep(0.1)
            if self._completed > last_progress[0]:
                last_progress = (self._completed, self._loop.time())
            elif self._loop.time() - last_progress[1] > cfg.drain_timeout:
                break
        wall_s = time.perf_counter() - bench_started

        self._stopping = True
        for task in background:
            task.cancel()
        await asyncio.gather(*background, return_exceptions=True)
        # The injector must not be cancelled mid-restart (it would leave a
        # half-started replica behind for verification); _stopping makes it
        # exit at its next threshold check, and a pending restart completes.
        try:
            await asyncio.wait_for(
                injector, timeout=self.config.restart_ready_timeout + 60.0
            )
        except Exception as exc:  # noqa: BLE001 - any injector failure is a finding
            self.violations.append(f"injector: did not finish cleanly: {exc!r}")

        # One final sample so even runs shorter than the sampling period
        # report real watermarks.
        await self._sample_watermarks()

        if self._owners:
            self.violations.append(
                f"loss: {len(self._owners)} messages never completed "
                f"within the drain window"
            )
        if self._resubmitter.exhausted:
            self.violations.append(
                f"resubmit-exhausted: {len(self._resubmitter.exhausted)} messages"
            )
        per_group = await self._verify_groups()
        return self._report(started_wall, wall_s, per_group)

    async def _verify_groups(self) -> Dict[int, Dict[str, Any]]:
        """Cross-replica agreement per group (+ optional deep id check)."""
        cfg = self.config
        per_group: Dict[int, Dict[str, Any]] = {}
        deep = cfg.resolved_deep_check()
        flush_ids = set(self._flush_ids)
        for gid in range(cfg.groups):
            try:
                agreed = await self.cluster.await_group_convergence(
                    gid, timeout=cfg.convergence_timeout, min_count=0
                )
            except TimeoutError as exc:
                self.violations.append(f"divergence: group {gid}: {exc}")
                per_group[gid] = {"delivered": None, "converged": False}
                continue
            per_group[gid] = {
                "delivered": agreed["count"],
                "digest": agreed["digest"],
                "converged": True,
            }
            if not deep:
                continue
            live = self.cluster.live_replicas(gid)
            sequence = await self.cluster.delivered_sequence(gid, live[0])
            ids = [mid for mid in sequence if mid not in flush_ids]
            if len(set(ids)) != len(ids):
                self.violations.append(f"duplication: group {gid} delivered dups")
            expected = self._per_group_sent[gid]
            if len(set(ids)) < expected - len(self._owners):
                self.violations.append(
                    f"loss: group {gid} delivered {len(set(ids))} unique ids, "
                    f"expected {expected}"
                )
        return per_group

    def _report(
        self,
        started_wall: float,
        wall_s: float,
        per_group: Dict[int, Dict[str, Any]],
    ) -> Dict[str, Any]:
        cfg = self.config
        assert self._batcher is not None and self._resubmitter is not None
        counts = [
            info["delivered"]
            for info in per_group.values()
            if info.get("delivered") is not None
        ]
        mean = sum(counts) / len(counts) if counts else 0.0
        skew = (max(counts) / mean) if counts and mean > 0 else None
        throughput = self._completed / wall_s if wall_s > 0 else 0.0
        return {
            "schema": "BENCH_soak/v1",
            "provenance": provenance(),
            "config": asdict(cfg),
            "totals": {
                "issued": self._issued,
                "completed": self._completed,
                "wall_s": wall_s,
                "throughput_msg_per_s": throughput,
                "retries": self._resubmitter.retries,
                "exhausted": len(self._resubmitter.exhausted),
                "batches_sent": self._batcher.stats["batches_sent"],
                "singles_sent": self._batcher.stats["singles_sent"],
                "flushes_sent": len(self._flush_ids),
                "driver_failed_sends": (
                    self._plane.transport.failed_sends if self._plane else 0
                ),
            },
            "latency_ms": {
                "delivery": self.delivery_hist.summary(),
                "first_response": self.first_hist.summary(),
            },
            "per_group": {str(gid): info for gid, info in per_group.items()},
            "skew_max_over_mean": skew,
            "watermarks": dict(self._watermarks),
            "events": self._events,
            "oracle": {
                "violations": list(self.violations),
                "deep_check": cfg.resolved_deep_check(),
            },
        }


async def run_soak(config: SoakConfig) -> Dict[str, Any]:
    """Run one soak to completion and return the BENCH_soak report."""
    return await SoakHarness(config).run()
