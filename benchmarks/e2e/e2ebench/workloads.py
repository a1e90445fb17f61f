"""The four workloads: what they run, what they measure, how they are checked.

``run_workload`` is the single entry point.  With ``trace=False`` it measures
the end-to-end metrics against the real program with nothing of the harness
inside it - the same fixed work several times over, every timing scaled to
reference host speed (``hostspeed``) and taken at the round that did it
fastest; with ``trace=True`` it produces the per-layer metrics: counters
scraped from the replicas' own ``/metrics`` across an untraced window of the
real cluster (source ``S``), timings the harness takes around public calls
(``H``), and span self times from an in-process traced run of the same
generated inputs (``T``).

Why these four (the normative table is in README.md; ``BENCHMARK.json``
declares the first three):

* ``local_batched``   - the wire path amortised per byte; the FlexCast gate idles.
* ``global_unbatched`` - the same layers paying per frame, per instance, per append.
* ``sim_gtpcc``       - the ordering core alone, on the paper's 12-group overlay.
* ``rejoin``          - a follower killed and restarted under open-loop load.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, AsyncIterator, Callable, Dict, List, Optional, Sequence, Tuple

from . import adapter, host, hostspeed, loadgen, stats

# --------------------------------------------------------------- the contract
#: End-to-end metrics, printed by every workload with tracing off:
#: name -> (unit, which direction is better).  Bounds live in BENCHMARK.json.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "throughput_msg_s": ("msg/s", "higher"),
    "cpu_ms_per_msg": ("ms", "lower"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p90_ms": ("ms", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "setup_s": ("s", "lower"),
}

#: Per-layer metrics, printed by every workload's traced run (0 where a
#: workload does not use the layer).
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "batching.msgs_per_batch": ("count", "higher"),
    "batching.window_wait_ms_p50": ("ms", "lower"),
    "batching.self_us_per_msg": ("us", "lower"),
    "codec.encode_us_per_msg": ("us", "lower"),
    "codec.decode_us_per_msg": ("us", "lower"),
    "codec.frames_per_msg": ("count", "lower"),
    "codec.bytes_per_msg": ("B", "lower"),
    "codec.standalone_encode_us_per_frame": ("us", "lower"),
    "codec.standalone_decode_us_per_frame": ("us", "lower"),
    "transport.send_us_per_msg": ("us", "lower"),
    "transport.frames_received_per_msg": ("count", "lower"),
    "transport.failed_sends": ("count", "lower"),
    "eventloop.residual_us_per_msg": ("us", "lower"),
    "proc.self_us_per_msg": ("us", "lower"),
    "smr.self_us_per_msg": ("us", "lower"),
    "smr.instances_per_msg": ("count", "lower"),
    "smr.frames_per_instance": ("count", "lower"),
    "smr.ballot_retries": ("count", "lower"),
    "smr.nacks": ("count", "lower"),
    "smr.follower_lag_max": ("count", "lower"),
    "storage.append_us_per_msg": ("us", "lower"),
    "storage.appends_per_msg": ("count", "lower"),
    "storage.fsyncs_per_msg": ("count", "lower"),
    "storage.fsync_ms_mean": ("ms", "lower"),
    "storage.wal_bytes_per_msg": ("B", "lower"),
    "flexcast.self_us_per_msg": ("us", "lower"),
    "flexcast.envelopes_per_msg": ("count", "lower"),
    "flexcast.guard_stalls_per_msg": ("count", "lower"),
    "flexcast.history_vertices_max": ("count", "lower"),
    "flexcast.queue_depth_max": ("count", "lower"),
    "history.self_us_per_msg": ("us", "lower"),
    "sim.self_us_per_event": ("us", "lower"),
    "sim.events_per_msg": ("count", "lower"),
    "latency.p99_ms": ("ms", "lower"),
    "inproc.throughput_msg_s": ("msg/s", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.attributed_share": ("ratio", "higher"),
    "loadgen.self_us_per_msg": ("us", "lower"),
    "runtime.gc_us_per_msg": ("us", "lower"),
    "loadgen.late_p99_ms": ("ms", "lower"),
    "loadgen.cpu_share": ("ratio", "lower"),
}

#: Printed besides by the traced run of a workload with a fault (``rejoin``).
FAULT_LAYER: Dict[str, Tuple[str, str]] = {
    "rejoin.total_s": ("s", "lower"),
    "proc.restart_s": ("s", "lower"),
    "storage.replay_records_per_s": ("1/s", "higher"),
    "smr.catchup_s": ("s", "lower"),
    "smr.catchup_decisions_per_s": ("1/s", "higher"),
    "fault.latency_p99_ms_during_catchup": ("ms", "lower"),
}


@dataclass(frozen=True)
class ClusterWorkload:
    """Traffic mix and load levels of one cluster workload."""

    global_fraction: float
    payload_chars: int
    max_batch: int
    max_delay_ms: float
    #: Closed loop: logical clients x credit = requests kept outstanding.
    clients: int
    credit: int
    #: Requests a second the closed loop completes at the seed commit,
    #: rounded down.  It only sizes the closed loop's fixed request count,
    #: so that a run at the seed commit measures for about ``--seconds``.
    closed_rate: float
    #: Open loop: fixed reference rate, about 40 % of the seed's capacity.
    open_rate: float
    fault: bool = False


CLUSTER_WORKLOADS: Dict[str, ClusterWorkload] = {
    "local_batched": ClusterWorkload(0.0, 64, 128, 10.0, 200, 4, 11000.0, 4000.0),
    "global_unbatched": ClusterWorkload(1.0, 1024, 1, 10.0, 64, 1, 600.0, 200.0),
    "rejoin": ClusterWorkload(0.2, 64, 128, 10.0, 200, 4, 6000.0, 2000.0, fault=True),
}
#: The workloads ``BENCHMARK.json`` declares, and the one it does not: with
#: four, the contract's time limit leaves each run too short to be steady
#: (README.md, "Deviations"), so ``rejoin`` runs under the full command only.
WORKLOADS: Tuple[str, ...] = ("local_batched", "global_unbatched", "sim_gtpcc")
UNDECLARED: Tuple[str, ...] = ("rejoin",)

FLUSH_EVERY_S = 0.5
#: Every run does its work this many times over; see ``stats.fastest``.
ROUNDS = 3
#: Slices of a round's throughput window, cut at fixed request counts.
SLICES = 8
#: Slices of its open-loop window, cut at fixed times: as many as leave
#: each about this many samples (ten beyond its p90), up to the maximum.
MIN_SLICE_SAMPLES = 100
MAX_OPEN_SLICES = 40
#: Closed loop before the first mark, in seconds at ``closed_rate``.
WARMUP_S = 0.8
#: Share of a round's measured time in the closed loop.  The open loop gets
#: the larger one: a tail percentile needs the samples.
CLOSED_SHARE = 0.375
#: One simulator chunk: virtual milliseconds of closed-loop gTPC-C load.  At
#: the seed commit a chunk takes about 2.2 s of wall time.
SIM_CHUNK_MS = 1000.0
#: The follower the rejoin workload kills, and when (shares of the window).
VICTIM = (0, 2)
KILL_AT, RESTART_AT = 0.125, 0.5
LATE_LIMIT_MS = 5.0
#: The traced run keeps every n-th inbound frame for the standalone codec replay.
CAPTURE_EVERY = 8
#: In-process run: which equal segments of the window record spans.
INPROC_SEGMENTS = (False, True, False, True)


@dataclass
class Outcome:
    """What one run of one workload produced."""

    workload: str
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Sample count behind a timing, keyed like ``metrics``.
    samples: Dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    violations: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.violations

    def put(self, name: str, value: float, samples: Optional[int] = None) -> None:
        self.metrics[name] = float(value)
        if samples is not None:
            self.samples[name] = samples


# ------------------------------------------------------------------ plumbing
@contextlib.asynccontextmanager
async def hosted(cluster: Any) -> AsyncIterator[Any]:
    """Start a cluster; on any exit path stop it and reap every child."""
    try:
        await cluster.start()
        yield cluster
    finally:
        children = list(cluster.processes.values())
        try:
            await asyncio.wait_for(cluster.stop(), timeout=20.0)
        finally:
            for child in children:
                if child.poll() is None:
                    child.kill()
                child.wait()


def _pids(cluster: Any) -> List[int]:
    return [child.pid for child in cluster.processes.values() if child.poll() is None]


def _live(cluster: Any, group: int) -> List[int]:
    return [
        index
        for index in range(adapter.REPLICATION)
        if (child := cluster.processes.get((group, index))) is None or child.poll() is None
    ]


async def _connect(
    cluster: Any, spec: ClusterWorkload, seed: int
) -> Tuple[adapter.Ingress, loadgen.Load]:
    stream = loadgen.RequestStream(seed, spec.global_fraction, spec.payload_chars)
    ingress = adapter.Ingress(cluster, spec.max_batch, spec.max_delay_ms)
    load = loadgen.Load(ingress, stream, FLUSH_EVERY_S)
    await ingress.open()
    return ingress, load


def _fresh_dir(work_dir: str, label: str) -> str:
    path = os.path.join(work_dir, label)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# -------------------------------------------------------------------- oracle
def _thin(
    issued: Sequence[Tuple[str, Sequence[int], bool]], multi_cap: int = 2000, single_cap: int = 20000
) -> List[Tuple[str, Sequence[int], bool]]:
    """A deterministic sample of the issued messages for the program's checker.

    ``check_trace`` compares every pair of messages two groups share, so its
    cost is quadratic in the multi-group messages; the harness's own linear
    checks cover every message, the program's checker a strided sample.
    """
    multi = [m for m in issued if len(m[1]) > 1]
    single = [m for m in issued if len(m[1]) == 1]
    multi_step = max(1, -(-len(multi) // multi_cap))
    single_step = max(1, -(-len(single) // single_cap))
    return multi[::multi_step] + single[::single_step]


async def check_cluster(cluster: Any, load: loadgen.Load, unfinished: int) -> Tuple[List[str], int]:
    """The oracle: returns (violations, failed operations)."""
    violations: List[str] = []
    bad_ids: set = set()
    if unfinished:
        violations.append(f"loss: {unfinished} requests never completed by the drain deadline")
    expected: Dict[int, set] = {g: set() for g in range(adapter.GROUPS)}
    for msg_id, dst, _ in load.issued:
        for group in dst:
            expected[group].add(msg_id)
    sequences: Dict[int, List[str]] = {}
    loop = asyncio.get_running_loop()
    for group in range(adapter.GROUPS):
        deadline = loop.time() + 30.0
        while True:
            docs = [await adapter.delivered(cluster, group, i) for i in _live(cluster, group)]
            agreed = len({(d["count"], d["digest"]) for d in docs}) == 1
            if agreed or loop.time() > deadline:
                break
            await asyncio.sleep(0.1)
        if not agreed:
            violations.append(f"divergence: group {group} replicas disagree: "
                              f"{[d['count'] for d in docs]}")
        sequence = (await adapter.delivered(cluster, group, 0, full=True))["sequence"]
        sequences[group] = sequence
        seen = set(sequence)
        if len(seen) != len(sequence):
            violations.append(f"duplication: group {group} delivered "
                              f"{len(sequence) - len(seen)} ids twice")
        missing, foreign = expected[group] - seen, seen - expected[group]
        if missing:
            violations.append(f"loss: group {group} never delivered {len(missing)} ids")
            bad_ids |= missing
        if foreign:
            violations.append(f"integrity: group {group} delivered {len(foreign)} unknown ids")
    for a in range(adapter.GROUPS):
        for b in range(a + 1, adapter.GROUPS):
            shared = expected[a] & expected[b]
            if [m for m in sequences[a] if m in shared] != [m for m in sequences[b] if m in shared]:
                violations.append(f"prefix-order: groups {a} and {b} order their shared "
                                  f"messages differently")
    sample = _thin(load.issued)
    keep = {msg_id for msg_id, _, _ in sample}
    violations += adapter.order_violations(
        {g: [m for m in seq if m in keep] for g, seq in sequences.items()}, sample
    )
    return violations, max(unfinished, len(bad_ids))


# ----------------------------------------------------- scraped counters (S)
def parse_metrics(text: str) -> Dict[str, float]:
    """Prometheus text -> {sample name: value summed over its label sets}."""
    values: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line[0] == "#":
            continue
        name_part, _, value = line.rpartition(" ")
        name = name_part.split("{", 1)[0]
        if name.endswith("_bucket"):
            continue
        values[name] = values.get(name, 0.0) + float(value)
    return values


class Sampler:
    """Scrapes every live replica about once a second during a window.

    Keeps the first and the latest scrape of each replica (counter deltas)
    and the running maxima of the gauges that matter: history size, queue
    depth, and how far the slowest follower's applied index trails.
    """

    def __init__(self, cluster: Any) -> None:
        self._cluster = cluster
        self._task: Optional[asyncio.Task] = None
        self.first: Dict[Tuple[int, int], Dict[str, float]] = {}
        self.last: Dict[Tuple[int, int], Dict[str, float]] = {}
        self.maxima = {"history_vertices": 0.0, "flexcast_queue_depth": 0.0, "lag": 0.0}

    async def sample(self) -> None:
        for group in range(adapter.GROUPS):
            applied = []
            for index in _live(self._cluster, group):
                try:
                    values = parse_metrics(await adapter.scrape(self._cluster, group, index))
                except (OSError, RuntimeError, asyncio.TimeoutError):
                    continue  # restarting: not listening yet
                key = (group, index)
                if key in self.last and values.get(
                    "server_frames_received_total", 0.0
                ) < self.last[key].get("server_frames_received_total", 0.0):
                    self.first[key] = {}  # the replica restarted: counters began again
                self.first.setdefault(key, values)
                self.last[key] = values
                applied.append(values.get("smr_applied_up_to", -1.0))
                for gauge in ("history_vertices", "flexcast_queue_depth"):
                    self.maxima[gauge] = max(self.maxima[gauge], values.get(gauge, 0.0))
            if applied:
                self.maxima["lag"] = max(self.maxima["lag"], max(applied) - min(applied))

    async def _loop(self) -> None:
        while True:
            await asyncio.sleep(1.0)
            await self.sample()

    async def start(self) -> None:
        await self.sample()
        self._task = asyncio.get_running_loop().create_task(self._loop())

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._task
        await self.sample()

    def delta(self, name: str, leaders_only: bool = False) -> float:
        total = 0.0
        for key, last in self.last.items():
            if leaders_only and key[1] != 0:
                continue
            total += last.get(name, 0.0) - self.first.get(key, {}).get(name, 0.0)
        return total


def _wal_bytes(root: str) -> int:
    total = 0
    for folder, _, files in os.walk(root):
        total += sum(
            os.path.getsize(os.path.join(folder, f)) for f in files if f.endswith(".wal")
        )
    return total


def _counter_metrics(out: Outcome, sampler: Sampler, messages: int, wal_bytes: int) -> None:
    per_msg = 1.0 / max(1, messages)
    frames = sampler.delta("server_frames_received_total")
    instances = sampler.delta("smr_committed_total", leaders_only=True)
    out.put("transport.frames_received_per_msg", frames * per_msg)
    out.put("smr.instances_per_msg", instances * per_msg)
    out.put("smr.frames_per_instance", frames / instances if instances else 0.0)
    out.put("smr.ballot_retries", sampler.delta("smr_ballot_retries_total"))
    out.put("smr.nacks", sampler.delta("smr_nacks_total"))
    out.put("smr.follower_lag_max", sampler.maxima["lag"])
    appends = sampler.delta("wal_append_ms_count")
    fsyncs = sampler.delta("wal_fsync_ms_count")
    out.put("storage.appends_per_msg", appends * per_msg)
    out.put("storage.fsyncs_per_msg", fsyncs * per_msg)
    out.put("storage.fsync_ms_mean",
            sampler.delta("wal_fsync_ms_sum") / fsyncs if fsyncs else 0.0, int(fsyncs))
    out.put("storage.wal_bytes_per_msg", wal_bytes * per_msg)
    envelopes = sum(
        sampler.delta(f"flexcast_{kind}_sent_total", leaders_only=True)
        for kind in ("msgs", "acks", "notifs")
    )
    out.put("flexcast.envelopes_per_msg", envelopes * per_msg)
    out.put("flexcast.guard_stalls_per_msg",
            sampler.delta("flexcast_pivot_guard_stalls_total", leaders_only=True) * per_msg)
    out.put("flexcast.history_vertices_max", sampler.maxima["history_vertices"])
    out.put("flexcast.queue_depth_max", sampler.maxima["flexcast_queue_depth"])


# ------------------------------------------------------------ cluster, real
#: (loop time, requests completed so far, CPU seconds so far) at a slice boundary.
Mark = Tuple[float, int, Dict[str, float]]


def _mark(cluster: Any, phase: loadgen.Phase) -> Mark:
    return asyncio.get_running_loop().time(), phase.completed, host.cpu_seconds(_pids(cluster))


async def _marks_by_count(cluster: Any, phase: loadgen.Phase, counts: Sequence[int]) -> List[Mark]:
    """A mark as ``phase`` completes each of ``counts`` requests."""
    marks = []
    for count in counts:
        while phase.completed < count:
            await asyncio.sleep(0.002)
        marks.append(_mark(cluster, phase))
    return marks


async def _marks_by_time(cluster: Any, phase: loadgen.Phase, times: Sequence[float]) -> List[Mark]:
    """A mark at each of ``times`` (loop clock)."""
    loop = asyncio.get_running_loop()
    marks = []
    for when in times:
        await asyncio.sleep(max(0.0, when - loop.time()))
        marks.append(_mark(cluster, phase))
    return marks


def _per_message(
    marks: Sequence[Mark], speed: hostspeed.HostSpeed, paced: bool = False
) -> Tuple[List[float], List[float]]:
    """(seconds, CPU seconds) per completed request in every slice between
    marks, at reference host speed.  ``paced``: the slices are of an open
    loop, whose seconds per request are the schedule's and are not scaled."""
    seconds, cpu = [], []
    for (t0, n0, cpu0), (t1, n1, cpu1) in zip(marks, marks[1:]):
        done, factor = max(1, n1 - n0), speed.factor(t0, t1)
        seconds.append((t1 - t0) / done / (1.0 if paced else factor))
        cpu.append((cpu1["total"] - cpu0["total"]) / done / factor)
    return seconds, cpu


def _latency_slices(
    done: "Round", count: int, speed: hostspeed.HostSpeed
) -> List[List[float]]:
    """Open-loop latencies (ms) of one round in ``count`` time slices of
    their due time, at reference host speed.  The wait in the ingress
    batching window is a wall-clock timer and stays as measured; the rest of
    a latency is work and queueing behind work, and is scaled."""
    opened, width = done.opened, done.open_s / count
    factors = [speed.factor(done.t0 + j * width, done.t0 + (j + 1) * width)
               for j in range(count)]
    slices: List[List[float]] = [[] for _ in range(count)]
    for start, end, wait in zip(opened.starts, opened.ends, opened.window_waits):
        j = min(count - 1, max(0, int((start - done.t0) / width)))
        slices[j].append((wait + (end - start - wait) / factors[j]) * 1000.0)
    return slices


@dataclass
class Round:
    """What one fresh cluster did with the run's requests."""

    #: Spawn -> every /ready -> client announce (``time.monotonic`` stamps).
    setup: Tuple[float, float]
    #: Slice boundaries of the throughput window (closed loop; the open
    #: loop where a workload has no closed one).
    marks: List[Mark]
    opened: loadgen.Phase
    t0: float
    open_s: float
    rss_mib: float
    messages: int
    attempted: int
    failed: int
    violations: List[str]
    #: Traced rounds only: what the per-layer ``S`` and ``H`` metrics are made of.
    layers: Dict[str, Any] = field(default_factory=dict)

    @property
    def driver_share(self) -> float:
        (_, _, cpu0), (_, _, cpu1) = self.marks[0], self.marks[-1]
        total = cpu1["total"] - cpu0["total"]
        return (cpu1["driver"] - cpu0["driver"]) / total if total > 0 else 0.0


async def _fault(cluster: Any, t0: float, seconds: float, marks: Dict[str, float]) -> None:
    """Kill the victim, restart it, and time its way back to the leader's log."""
    loop = asyncio.get_running_loop()
    group, index = VICTIM
    await asyncio.sleep(max(0.0, t0 + KILL_AT * seconds - loop.time()))
    await cluster.kill_replica(group, index)
    await asyncio.sleep(max(0.0, t0 + RESTART_AT * seconds - loop.time()))
    marks["restart_called"] = loop.time()

    async def until_ready() -> None:
        address = cluster.spec.replica_address(group, index)
        while True:
            try:
                ready = await adapter.http_get(address, "/ready", timeout=1.0)
                marks["ready"] = loop.time()
                marks["recovered_instances"] = json.loads(ready)["recovered_instances"]
                return
            except (OSError, RuntimeError, asyncio.TimeoutError):
                await asyncio.sleep(0.02)

    ready_probe = loop.create_task(until_ready())
    await cluster.restart_replica(group, index)
    marks["restart_returned"] = loop.time()
    await ready_probe
    target = (await adapter.delivered(cluster, group, 0))["count"]
    while (await adapter.delivered(cluster, group, index))["count"] < target:
        await asyncio.sleep(0.05)
    marks["caught_up"] = loop.time()
    caught = parse_metrics(await adapter.scrape(cluster, group, index))
    marks["catchup_entries"] = caught.get("smr_catchup_entries_applied_total", 0.0)


async def run_round(name: str, seed: int, round_s: float, trace: bool, root: str) -> Round:
    """One round: a fresh cluster of real OS processes does the run's work.

    Set up -> closed loop over a fixed request count (warm-up, then the
    timed window cut into ``SLICES`` at fixed counts) -> drain -> open loop
    over the seeded schedule -> drain -> oracle -> tear down.  ``round_s``
    is the length of the two windows together at the seed commit; the work
    is a function of the seed and ``round_s`` alone, so every round of a run
    does the same, and so does every run of a seed: the cluster's state
    (logs, histories, heaps - its cost per request grows with them) is the
    same at the same request, whatever the host's speed.

    ``trace`` adds the once-a-second ``/metrics`` sampler; it does not
    change what the program is asked to do.
    """
    spec = CLUSTER_WORKLOADS[name]
    loop = asyncio.get_running_loop()
    gc.collect()  # the last round's requests do not weigh on this one's driver
    host.reset_peak_rss()
    # Let write-back left by whatever ran before finish outside the timed part.
    os.sync()
    started = time.monotonic()
    async with hosted(adapter.process_cluster(root)) as cluster:
        ingress, load = await _connect(cluster, spec, seed)
        try:
            setup = (started, time.monotonic())
            layers: Dict[str, Any] = {}
            if trace:
                layers["sampler"] = sampler = Sampler(cluster)
                await sampler.start()
                layers["wal0"], layers["batch0"] = _wal_bytes(root), ingress.batch_stats
            load.start_flusher()
            warm_n = round(spec.closed_rate * WARMUP_S)
            closed_n = round(spec.closed_rate * round_s * CLOSED_SHARE)
            counts = [warm_n] if spec.fault else [
                warm_n + closed_n * j // SLICES for j in range(SLICES + 1)]
            warm = load.start_closed(spec.clients * spec.credit)
            marks = await _marks_by_count(cluster, warm, counts)
            load.stop_closed()
            await load.drain(10.0)
            # A workload with a fault has no closed window: its open one is
            # the whole round, and the throughput slices are cut from it by time.
            open_s = round_s if spec.fault else round_s * (1.0 - CLOSED_SHARE)
            schedule = loadgen.poisson_schedule(seed, spec.open_rate, open_s)
            t0 = loop.time() + 0.05
            opened = loadgen.Phase()
            violations: List[str] = []
            fault_marks: Dict[str, float] = {}
            if spec.fault:
                fault = loop.create_task(_fault(cluster, t0, open_s, fault_marks))
                marking = loop.create_task(_marks_by_time(
                    cluster, opened, [t0 + open_s * j / SLICES for j in range(SLICES + 1)]))
            await load.open_loop(opened, schedule, t0)
            if spec.fault:
                marks = await marking
                try:
                    await asyncio.wait_for(fault, timeout=60.0)
                except (asyncio.TimeoutError, OSError, RuntimeError) as exc:
                    violations.append(f"rejoin: victim did not catch up: {exc!r}")
            await load.stop_flusher()
            unfinished = await load.drain(20.0)
            if trace:
                await sampler.stop()
                layers["wal1"], layers["batch1"] = _wal_bytes(root), ingress.batch_stats
                layers["failed_sends"] = ingress.transport.failed_sends
                layers["fault"] = fault_marks
            found, failed = await check_cluster(cluster, load, unfinished)
            rss = host.peak_rss_mib(_pids(cluster))
        finally:
            await ingress.close()
    shutil.rmtree(root, ignore_errors=True)
    return Round(
        setup=setup, marks=marks, opened=opened, t0=t0, open_s=open_s, rss_mib=rss,
        messages=warm.completed + opened.completed,
        attempted=sum(1 for _, _, is_flush in load.issued if not is_flush),
        failed=failed, violations=violations + found, layers=layers,
    )


async def run_cluster(
    name: str, seed: int, seconds: float, speed: Optional[hostspeed.HostSpeed],
    work_dir: str, out: Outcome,
) -> None:
    """One cluster workload: ``ROUNDS`` rounds of the same work, untraced
    (``speed`` given); one round with the counters sampled, traced.

    Every end-to-end timing is scaled to reference host speed
    (``hostspeed``), and then takes each slice of the work at the round
    that did it fastest (``stats.fastest``).
    """
    trace = speed is None
    rounds: List[Round] = []
    for index in range(1 if trace else ROUNDS):
        done = await run_round(name, seed, seconds / ROUNDS, trace,
                               _fresh_dir(work_dir, f"{name}-{index}"))
        rounds.append(done)
        out.violations += done.violations
        out.attempted += done.attempted
        out.failed += done.failed
    late_p99 = max(stats.percentile(r.opened.late_s, 99.0) for r in rounds) * 1000.0
    if late_p99 > LATE_LIMIT_MS:
        out.notes.append(f"invalid: open-loop generator ran {late_p99:.1f} ms late at p99")
    latencies = [ms for r in rounds for ms in r.opened.latencies_ms()]
    if speed is not None:
        per_round = [_per_message(r.marks, speed, CLUSTER_WORKLOADS[name].fault) for r in rounds]
        seconds_per_msg = stats.fastest([row for row, _ in per_round])
        cpu_per_msg = stats.fastest([row for _, row in per_round])
        timed = sum(r.marks[-1][1] - r.marks[0][1] for r in rounds)
        open_slices = max(1, min(MAX_OPEN_SLICES,
                                 len(latencies) // len(rounds) // MIN_SLICE_SAMPLES))
        sliced = [_latency_slices(r, open_slices, speed) for r in rounds]
        out.put("throughput_msg_s", 1.0 / statistics.fmean(seconds_per_msg), timed)
        out.put("cpu_ms_per_msg", statistics.fmean(cpu_per_msg) * 1000.0, timed)
        out.put("latency_p50_ms", stats.quiet_percentile(sliced, 50.0), len(latencies))
        out.put("latency_p90_ms", stats.quiet_percentile(sliced, 90.0), len(latencies))
        out.put("peak_rss_mb", statistics.median(r.rss_mib for r in rounds), len(rounds))
        out.put("setup_s", statistics.median(
            (t1 - t0) / speed.factor(t0, t1) for t0, t1 in (r.setup for r in rounds)), len(rounds))
        tail = stats.highest_supported_percentile(len(latencies)) or 50.0
        last = rounds[-1].marks[-1]
        out.notes.append(
            f"{len(rounds)} rounds of the same requests; timings are scaled to reference "
            f"host speed (the host ran {speed.factor(rounds[0].setup[0], last[0]):.2f}x "
            f"slower) and each slice is taken at its fastest round: {SLICES} of the "
            f"throughput window's {timed // len(rounds)} requests, {open_slices} of the open "
            f"loop's {rounds[0].open_s:g} s, of whose p50 / p90 the lower quartile is "
            f"reported.  As measured, all rounds pooled: "
            f"{timed / sum(r.marks[-1][0] - r.marks[0][0] for r in rounds):.0f} msg/s, "
            f"p50 {stats.percentile(latencies, 50.0):.1f} ms, p{tail:g} "
            f"{stats.percentile(latencies, tail):.1f} ms (the highest percentile with ten "
            f"samples beyond it); generator late p99 {late_p99:.2f} ms; "
            f"driver used {rounds[0].driver_share:.0%} of the CPU")
        return
    (only,) = rounds
    layers = only.layers
    _counter_metrics(out, layers["sampler"], only.messages, layers["wal1"] - layers["wal0"])
    sent = {k: layers["batch1"][k] - layers["batch0"][k] for k in layers["batch1"]}
    windows = sent["batches_sent"] + sent["singles_sent"]
    waits = only.opened.window_waits
    out.put("batching.msgs_per_batch",
            (sent["messages_batched"] + sent["singles_sent"]) / max(1, windows), windows)
    out.put("batching.window_wait_ms_p50",
            stats.percentile(waits, 50.0) * 1000.0 if waits else 0.0, len(waits))
    out.put("transport.failed_sends", layers["failed_sends"])
    out.put("latency.p99_ms", stats.percentile(latencies, 99.0), len(latencies))
    out.put("loadgen.late_p99_ms", late_p99, len(only.opened.late_s))
    out.put("loadgen.cpu_share", only.driver_share)
    marks = layers["fault"]
    if "caught_up" in marks:
        restart_s = marks["restart_returned"] - marks["restart_called"]
        catchup_s = marks["caught_up"] - marks["restart_returned"]
        ready_s = marks["ready"] - marks["restart_called"]
        out.put("rejoin.total_s", restart_s + catchup_s)
        out.put("proc.restart_s", restart_s)
        out.put("smr.catchup_s", catchup_s)
        out.put("storage.replay_records_per_s", marks["recovered_instances"] / ready_s,
                int(marks["recovered_instances"]))
        out.put("smr.catchup_decisions_per_s",
                marks["catchup_entries"] / max(catchup_s, 1e-3), int(marks["catchup_entries"]))
        during = [
            latency for start, latency in zip(only.opened.starts, only.opened.latencies_ms())
            if marks["restart_called"] <= start < marks["caught_up"]
        ]
        if during:
            out.put("fault.latency_p99_ms_during_catchup",
                    stats.percentile(during, 99.0), len(during))


# -------------------------------------------------------- cluster, in-process
async def run_inprocess(
    name: str, seed: int, seconds: float, work_dir: str, out_dir: Optional[str], out: Outcome
) -> None:
    """The same inputs against the same server objects in this process,
    untraced and traced by turns."""
    from . import tracing  # only traced runs import the tracer

    spec = CLUSTER_WORKLOADS[name]
    loop = asyncio.get_running_loop()
    root = _fresh_dir(work_dir, f"{name}-inproc")
    recorder = tracing.Recorder()
    bodies: List[bytes] = []
    wire = {"bytes": 0, "frames": 0}

    def request_key(span: str, args: tuple) -> Any:
        if span == "codec.decode":
            wire["bytes"] += len(args[0])
            wire["frames"] += 1
            if wire["frames"] % CAPTURE_EVERY == 0:
                bodies.append(args[0])
            return None
        return adapter.frame_message_id(args[-1])

    recorder.request_key = request_key
    # Untraced and traced segments alternate on one continuous closed loop,
    # so drift over the run (logs and heaps grow) falls on both alike.
    segment_s = seconds / len(INPROC_SEGMENTS)
    segments: Dict[bool, List[Tuple[float, float]]] = {False: [], True: []}
    traced_wall = 0.0
    async with hosted(adapter.InProcessCluster(root)) as cluster:
        ingress, load = await _connect(cluster, spec, seed)
        try:
            load.start_flusher()
            phase = load.start_closed(spec.clients * spec.credit)
            await asyncio.sleep(WARMUP_S)
            for traced in INPROC_SEGMENTS:
                if traced:
                    recorder.patch(adapter.trace_targets())
                    ingress.on_response = recorder.wrap(
                        type(ingress).on_response.__get__(ingress), "loadgen.on_response")
                try:
                    recorder.enabled = traced
                    t0, wall0 = loop.time(), time.perf_counter()
                    await asyncio.sleep(segment_s)
                    recorder.enabled = False
                    segments[traced].append((t0, loop.time()))
                    if traced:
                        traced_wall += time.perf_counter() - wall0
                finally:
                    if traced:
                        recorder.unpatch()
                        del ingress.on_response
            load.stop_closed()
            await load.stop_flusher()
            unfinished = await load.drain(20.0)
            violations, failed = await check_cluster(cluster, load, unfinished)
        finally:
            await ingress.close()
    shutil.rmtree(root, ignore_errors=True)

    out.violations += violations
    out.attempted += sum(1 for _, _, is_flush in load.issued if not is_flush)
    out.failed += failed

    def completed_in(windows: List[Tuple[float, float]]) -> int:
        return sum(1 for end in phase.ends for t0, t1 in windows if t0 <= end < t1)

    completed = max(1, completed_in(segments[True]))
    plain = completed_in(segments[False])
    plain_s = sum(t1 - t0 for t0, t1 in segments[False])
    traced_s = sum(t1 - t0 for t0, t1 in segments[True])
    _span_metrics(out, tracing.breakdown(recorder.spans, traced_wall), completed)
    out.put("codec.bytes_per_msg", wire["bytes"] / completed)
    out.put("inproc.throughput_msg_s", plain / plain_s, plain)
    out.put("trace.overhead_ratio", (plain / plain_s) / (completed / traced_s), completed)
    if bodies:
        decode_all, encode_all = adapter.codec_roundtrip(bodies)
        for metric, replay in (("decode", decode_all), ("encode", encode_all)):
            began = time.perf_counter()
            replay()
            out.put(f"codec.standalone_{metric}_us_per_frame",
                    (time.perf_counter() - began) * 1e6 / len(bodies), len(bodies))
    if out_dir is not None:
        recorder.write_jsonl(os.path.join(out_dir, f"trace-{name}.jsonl"))


def _span_metrics(out: Outcome, report: Dict[str, Any], completed: int) -> None:
    """Span self times -> the per-layer ``T`` metrics (microseconds per message)."""
    own, calls, layers = report["self_s"], report["calls"], report["layers_s"]
    scale = 1e6 / completed

    def layer(*names: str) -> float:
        return sum(layers.get(n, 0.0) for n in names) * scale

    out.put("batching.self_us_per_msg", layer("batching"), calls.get("batching.submit", 0))
    out.put("codec.encode_us_per_msg", own.get("codec.encode", 0.0) * scale,
            calls.get("codec.encode", 0))
    out.put("codec.decode_us_per_msg", own.get("codec.decode", 0.0) * scale,
            calls.get("codec.decode", 0))
    out.put("codec.frames_per_msg", calls.get("codec.encode", 0) / completed)
    out.put("transport.send_us_per_msg", layer("transport"), calls.get("transport.send", 0))
    out.put("proc.self_us_per_msg", layer("proc"), calls.get("proc.handle_frame", 0))
    out.put("smr.self_us_per_msg", layer("smr"), calls.get("smr.on_message", 0))
    out.put("storage.append_us_per_msg", layer("storage"), calls.get("storage.append", 0))
    out.put("flexcast.self_us_per_msg", layer("flexcast"), calls.get("flexcast.on_envelope", 0))
    out.put("history.self_us_per_msg", layer("history"),
            sum(n for name, n in calls.items() if name.startswith("history.")))
    out.put("loadgen.self_us_per_msg", layer("loadgen"), calls.get("loadgen.on_response", 0))
    out.put("runtime.gc_us_per_msg", layer("runtime"), calls.get("runtime.gc", 0))
    out.put("eventloop.residual_us_per_msg", report["residual_s"] * scale)
    out.put("trace.attributed_share", report["attributed_share"])
    events = calls.get("sim.step", 0)
    if events:
        out.put("sim.self_us_per_event", own["sim.step"] * 1e6 / events, events)
        out.put("sim.events_per_msg", events / completed)


# ----------------------------------------------------------------- simulator
def _sim_pass(
    sub_seeds: Sequence[int], chunk_ms: float, out: Outcome,
    before_each: Callable[[], None] = lambda: None,
) -> Tuple[List[Dict[str, Any]], List[Tuple[float, float]], List[float]]:
    """Simulate every chunk once; returns per chunk the result, the
    ``time.monotonic`` stamps around it, and its CPU seconds."""
    results, stamps, cpus = [], [], []
    for sub_seed in sub_seeds:
        before_each()
        began, cpu0 = time.monotonic(), time.process_time()
        result = adapter.run_sim(sub_seed, chunk_ms)
        cpus.append(time.process_time() - cpu0)
        stamps.append((began, time.monotonic()))
        results.append(result)
        out.attempted += result["issued"]
        out.failed += result["issued"] - result["completed"]
        if result["issued"] != result["completed"]:
            out.violations.append(f"loss: sim seed {sub_seed} completed "
                                  f"{result['completed']} of {result['issued']}")
    return results, stamps, cpus


def run_sim(seed: int, seconds: float, speed: Optional[hostspeed.HostSpeed], quick: bool,
            out_dir: Optional[str], out: Outcome) -> None:
    """Fixed work: ``seconds`` decides how many seeded chunks are simulated.

    One chunk's cost depends on its seed by about a tenth (the work is
    superlinear in the history a seed happens to build) - far more than on
    the host once timings are scaled to reference speed (``speed``; none
    when traced) - so a run spends its time on many chunks with seeds drawn
    from ``seed``, each simulated once.  The oracle's "same seed, same
    result" simulates the first chunk again at the end, untimed; the traced
    run repeats every chunk.
    """
    chunk_ms = SIM_CHUNK_MS / 4 if quick else SIM_CHUNK_MS
    # A chunk takes a little over 2 s at the seed commit; one goes to the oracle.
    count = 1 if quick else max(1, round(seconds / 2.4) - 1)
    sub_rng = random.Random(f"sim:{seed}")
    sub_seeds = [sub_rng.getrandbits(31) for _ in range(count)]
    if speed is not None:
        setups: List[float] = []

        def set_up() -> None:
            # As a user of the simulator pays it: a fresh interpreter imports
            # the program, builds the 12-group deployment and runs its first
            # events.  One before every chunk, so the samples are spread over
            # the run and not over one slow spell of the host.
            began = time.monotonic()
            subprocess.run(
                [sys.executable, "-c",
                 "import sys; sys.path[:0] = sys.argv[1:3]; from e2ebench import adapter; "
                 "adapter.run_sim(int(sys.argv[3]), 1.0)",
                 *adapter.import_paths(), str(seed)],
                check=True,  # no timeout: a timed wait polls in 50 ms steps
            )
            ended = time.monotonic()
            setups.append((ended - began) / speed.factor(began, ended))

        results, stamps, cpus = _sim_pass(sub_seeds, chunk_ms, out, set_up)
        again, _, _ = _sim_pass(sub_seeds[:1], chunk_ms, out)
        if again != results[:1]:
            out.violations.append("determinism: the first chunk, simulated again, differs")
        completed = max(1, sum(r["completed"] for r in results))
        factors = [speed.factor(t0, t1) for t0, t1 in stamps]
        wall_s = sum((t1 - t0) / f for (t0, t1), f in zip(stamps, factors))
        cpu_s = sum(cpu / f for cpu, f in zip(cpus, factors))
        latencies = [ms for r in results for ms in r["latencies_ms"]]
        out.put("throughput_msg_s", completed / wall_s, completed)
        out.put("cpu_ms_per_msg", cpu_s * 1000.0 / completed, completed)
        out.put("latency_p50_ms", stats.percentile(latencies, 50.0), len(latencies))
        out.put("latency_p90_ms", stats.percentile(latencies, 90.0), len(latencies))
        out.put("peak_rss_mb", host.peak_rss_mib([]))
        out.put("setup_s", statistics.median(setups), len(setups))
        out.notes.append(
            f"{count} chunks of {chunk_ms:.0f} virtual ms; timings are scaled to reference "
            f"host speed (the host ran {statistics.fmean(factors):.2f}x slower; as measured: "
            f"{completed / sum(t1 - t0 for t0, t1 in stamps):.0f} msg/s); latencies are "
            f"simulated WAN time and repeat exactly for a seed "
            f"(p99 {stats.percentile(latencies, 99.0):.3f} ms)")
        return

    from . import tracing  # only traced runs import the tracer

    plain, plain_stamps, _ = _sim_pass(sub_seeds, chunk_ms, out)
    recorder = tracing.Recorder()
    recorder.patch(adapter.trace_targets())
    try:
        recorder.enabled = True
        traced, traced_stamps, _ = _sim_pass(sub_seeds, chunk_ms, out)
        recorder.enabled = False
    finally:
        recorder.unpatch()
    plain_wall = sum(t1 - t0 for t0, t1 in plain_stamps)
    traced_wall = sum(t1 - t0 for t0, t1 in traced_stamps)
    if traced != plain:
        out.violations.append("determinism: the traced chunks differ from the untraced ones")
    completed = max(1, sum(r["completed"] for r in traced))
    latencies = [ms for r in plain for ms in r["latencies_ms"]]
    _span_metrics(out, tracing.breakdown(recorder.spans, traced_wall), completed)
    out.put("latency.p99_ms", stats.percentile(latencies, 99.0), len(latencies))
    out.put("trace.overhead_ratio", traced_wall / plain_wall, completed)
    if out_dir is not None:
        recorder.write_jsonl(os.path.join(out_dir, "trace-sim_gtpcc.jsonl"))


# ---------------------------------------------------------------------- entry
def metric_units(name: str, trace: bool) -> Dict[str, Tuple[str, str]]:
    """The metrics one run of ``name`` prints: name -> (unit, better)."""
    if not trace:
        return END_TO_END
    fault = name in CLUSTER_WORKLOADS and CLUSTER_WORKLOADS[name].fault
    return {**PER_LAYER, **FAULT_LAYER} if fault else PER_LAYER


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, work_dir: str,
    out_dir: Optional[str] = None, quick: bool = False,
) -> Outcome:
    """Run one workload once and return every metric of the requested kind."""
    if name not in WORKLOADS + UNDECLARED:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS + UNDECLARED}")
    out = Outcome(workload=name)
    host.reset_peak_rss()
    cores = os.sched_getaffinity(0)
    with contextlib.ExitStack() as stack:
        speed = None
        if not trace:
            if name == "sim_gtpcc":
                # One process on one core: the yardstick must run on that
                # core, not on a neighbour that another tenant of the host
                # may be slowing.  Children inherit the mask: the sampler
                # and the set-up interpreters.
                os.sched_setaffinity(0, {min(cores)})
                stack.callback(os.sched_setaffinity, 0, cores)
            speed = stack.enter_context(
                hostspeed.HostSpeed(os.path.join(work_dir, "host-speed.txt")))
        if name == "sim_gtpcc":
            run_sim(seed, seconds, speed, quick, out_dir, out)
        else:
            async def both() -> None:
                await run_cluster(name, seed, seconds, speed, work_dir, out)
                if trace and not CLUSTER_WORKLOADS[name].fault:
                    await run_inprocess(name, seed, seconds / 2, work_dir, out_dir, out)

            asyncio.run(both())
    for metric in metric_units(name, trace):
        out.metrics.setdefault(metric, 0.0)
    if out.violations:
        out.failed = max(out.failed, out.attempted)
    return out
