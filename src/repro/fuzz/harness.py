"""Run one fuzz scenario on the deterministic simulator and check it.

The harness deploys the scenario's protocol stack (plain FlexCast groups, the
epoch-reconfigurable variant when switches are scripted, or a multi-Paxos
replicated group for crash profiles), drives the explicit submission schedule,
then runs the *full* oracle suite over the captured trace:

* :func:`repro.checker.check_trace` — integrity, validity/agreement (when the
  profile keeps liveness), prefix order, acyclic order;
* :func:`repro.checker.check_sequential_replay` — the generic sequential
  replay oracle (state-level divergence, the form applications see bugs in);
* :func:`repro.checker.conservation_check` — exactly-once effect accounting;
* :func:`repro.checker.check_epochs` — epoch monotonic/agreement/barrier
  properties when the scenario reconfigures;
* replica agreement / post-fail-over delivery for crash scenarios;
* batch atomicity when the scenario batches (``batch_window`` > 1): the
  delivery gate splits every batch into per-member deliveries *before* the
  oracles run, so all of the above apply unchanged, and an additional check
  pins the batching contract itself — per group, a batch is delivered
  all-or-nothing, contiguously, in member order (a dropped batch degrades
  exactly like N dropped messages).

Every run is a pure function of the scenario, so a failing scenario can be
shrunk (:mod:`repro.fuzz.shrink`) and committed as a regression schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from ..checker.properties import check_epochs, check_trace
from ..checker.recovery import check_recovery
from ..checker.replay import check_sequential_replay, conservation_check
from ..core.batching import BatchingClient
from ..core.flexcast import FlexCastGroup, FlexCastProtocol
from ..core.message import ClientRequest, Message
from ..core.timestamps import Exposure
from ..obs import Observability
from ..overlay.base import GroupId
from ..overlay.cdag import CDagOverlay
from ..protocols.base import RecordingSink
from ..reconfig.coordinator import EpochCoordinator
from ..reconfig.group import ReconfigurableFlexCastProtocol
from ..sim.events import EventLoop
from ..sim.latencies import LatencyMatrix, aws_latency_matrix
from ..sim.network import Network
from ..sim.transport import SimTransport
from ..smr.replica import ReplicatedGroup
from ..storage import InMemoryStorage
from ..workload.clients import BoundedResubmitter
from .profiles import EnvelopeFaultFilter
from .scenario import FuzzScenario, Submission

CLIENT = "fuzz-client"
COORDINATOR = "fuzz-coordinator"

#: Event budget per run; exceeding it is reported as a livelock violation.
MAX_EVENTS = 3_000_000


@dataclass
class FuzzResult:
    """Outcome of one scenario run.

    Violations are split into two buckets:

    * :attr:`violations` — breaches of the properties the protocol
      *guarantees*: integrity, no-loss/no-dup (validity/agreement,
      conservation), prefix order, epoch safety, liveness (no livelock).
      The sweep gate fails on any of these.
    * :attr:`ordering_anomalies` — global acyclic-order violations (and the
      replay/prefix shadows of the same underlying cycle).  Under extreme
      cross-group conflict the c-DAG's down-only information flow lets
      groups commit complementary halves of a delivery cycle no local rule
      can see in time; the pivot guard makes this rare and poison tolerance
      keeps it from ever losing messages, but it cannot be excluded — see
      DESIGN.md "Ordering: pivot guard + exposure".  These are *reported*
      (and shrinkable) so the limitation stays measured, not hidden.

    The second bucket only exists for ``exposure="none"`` runs (which
    regression schedules use to demonstrate the hole exposure closes).  With
    a declared universe or everything exposed, the timestamp authority makes
    global acyclic order a guaranteed property, so an acyclic-order finding
    is a genuine violation and stays in :attr:`violations`
    (``finalize_buckets(strict=True)``).
    """

    scenario: FuzzScenario
    violations: List[str] = field(default_factory=list)
    ordering_anomalies: List[str] = field(default_factory=list)
    submitted: int = 0
    delivered: int = 0
    events: int = 0
    #: Per-group delivery sequences (msg ids), for diagnosis and tests.
    sequences: Dict[Hashable, List[str]] = field(default_factory=dict)
    #: Batches the client shipped: ``(batch_id, member msg_ids)`` in send
    #: order (empty when the scenario runs unbatched).  Input to the
    #: batch-atomicity oracle and to tests.
    batches: List[Tuple[str, Tuple[str, ...]]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """No violation of a guaranteed property."""
        return not self.violations

    @property
    def strict_ok(self) -> bool:
        """No violation of any checked property, ordering anomalies included."""
        return not self.violations and not self.ordering_anomalies

    def finalize_buckets(self, strict: bool = False) -> None:
        """Move cycle-shadow violations into :attr:`ordering_anomalies`.

        When (and only when) a run contains an acyclic-order violation, the
        replay divergence and any prefix-order disagreement are downstream
        manifestations of that same cycle (poison-tolerant delivery keeps
        going through contradictory constraints instead of losing messages).
        Without a cycle, prefix/replay failures are genuine guarantee
        breaches and stay in :attr:`violations`.

        ``strict`` (any exposure but none) disables the re-bucketing
        entirely: acyclic order is guaranteed there, so a cycle is a
        first-class violation and the sweep gate must fail on it.
        """
        if strict:
            return
        has_cycle = any("[acyclic-order]" in v for v in self.violations)
        if not has_cycle:
            return
        shadows = ("[acyclic-order]", "[prefix-order]", "[replay]")
        keep: List[str] = []
        for violation in self.violations:
            if any(violation.startswith(s) for s in shadows):
                self.ordering_anomalies.append(violation)
            else:
                keep.append(violation)
        self.violations = keep


def _latency_matrix(scenario: FuzzScenario) -> LatencyMatrix:
    if scenario.latency == "aws":
        return aws_latency_matrix()
    num_sites = max(2, len(scenario.order))
    base = scenario.uniform_ms
    matrix = [
        [0.3 if i == j else base for j in range(num_sites)]
        for i in range(num_sites)
    ]
    return LatencyMatrix(matrix=matrix, names=[f"s{i}" for i in range(num_sites)])


def _flush_submissions(scenario: FuzzScenario) -> List[Submission]:
    if not scenario.gc_interval_ms:
        return []
    horizon = max((s.at_ms for s in scenario.submissions), default=0.0)
    flushes = []
    t = scenario.gc_interval_ms
    k = 0
    while t < horizon + 2 * scenario.gc_interval_ms:
        flushes.append(
            Submission(
                at_ms=round(t, 3),
                msg_id=f"{scenario.name}-flush{k}",
                dst=tuple(scenario.order),
                payload_bytes=8,
                is_flush=True,
            )
        )
        k += 1
        t += scenario.gc_interval_ms
    return flushes


def run_scenario(
    scenario: FuzzScenario,
    exposure: Optional[str] = None,
    use_batching_client: bool = False,
    obs: Optional[Observability] = None,
) -> FuzzResult:
    """Execute ``scenario`` deterministically and return the checked result.

    ``exposure`` names what the timestamp authority orders
    (:data:`EXPOSURE_MODES`).  ``None`` (the default)
    follows the scenario: ``"all"`` when it pins ``hybrid``, else
    ``"declared"`` — the harness derives the shape universe from the
    scenario's own destination sets (:func:`scenario_conflict_shapes`).
    Either makes ``acyclic-order`` a *hard* property; ``"none"`` runs the
    paper's protocol, where it is a reported anomaly (regression schedules
    use it to demonstrate the 3-cycle exposure closes).
    ``use_batching_client`` forces submissions through a
    :class:`~repro.core.batching.BatchingClient` even when the scenario's
    ``batch_window`` is 1 — the differential equivalence tests use this to
    pin that a window of one is bit-identical to the unbatched client.
    ``obs`` attaches an observability hub (:mod:`repro.obs`) to every group
    and client in the run; with a tracer on the hub, the run leaves a full
    per-message lifecycle trace behind (the sweep dumps it next to a shrunk
    failing schedule).  Timestamps are virtual simulator milliseconds, so a
    trace is as deterministic as the run itself.
    """
    if scenario.replication_factor > 1:
        # One replicated group: no global message, nothing to expose.
        return _run_replicated(scenario, obs)
    if exposure is None:
        exposure = "all" if scenario.hybrid else "declared"
    return _run_flexcast(scenario, exposure, use_batching_client, obs)


# ----------------------------------------------------------- batch atomicity
def _check_batch_atomicity(
    sequences: Dict[GroupId, List[str]],
    batches: List[Tuple[str, Tuple[str, ...]]],
) -> List[str]:
    """The batching contract: per group, a batch is all-or-nothing.

    The delivery gate fans a batch carrier out atomically, so every group
    either delivers *all* members — contiguously, in member order — or none
    of them (e.g. the batch envelope was dropped on the way to that group's
    msg path).  A partial, reordered or interleaved batch means the carrier
    stopped being one ordering unit somewhere, which is exactly the failure
    mode batching must never introduce.  This holds unconditionally for the
    harness's (compliant) client: each message belongs to exactly one
    ordering unit, and in-flight member retries are absorbed by the enqueue
    guard — the gate's deliver-once fallback for *non-compliant* duplicate
    submissions is unreachable here, so any finding is a genuine bug.
    """
    violations: List[str] = []
    for batch_id, members in batches:
        member_set = set(members)
        for gid, seq in sequences.items():
            positions = [i for i, mid in enumerate(seq) if mid in member_set]
            if not positions:
                continue  # the "nothing" arm: dropped batch = N dropped messages
            delivered = [seq[i] for i in positions]
            if len(positions) != len(members):
                violations.append(
                    f"[batch-atomicity] group {gid} delivered "
                    f"{len(positions)}/{len(members)} members of batch "
                    f"{batch_id} — partial batch delivery"
                )
            elif delivered != list(members):
                violations.append(
                    f"[batch-atomicity] group {gid} delivered batch "
                    f"{batch_id} members out of batch order: {delivered}"
                )
            elif positions != list(range(positions[0], positions[0] + len(members))):
                violations.append(
                    f"[batch-atomicity] group {gid} interleaved other "
                    f"deliveries inside batch {batch_id}"
                )
    return violations


# ---------------------------------------------------------------- leak oracle
def _check_leaks(
    groups: Dict[GroupId, object], batcher: Optional[BatchingClient]
) -> List[str]:
    """End-of-run resource-leak oracle (clean runs only).

    After a run where every submission was delivered and the loop went idle,
    the per-message machinery must have wound down: no queued messages, no
    parked notifications, no undecided timestamp entries, no open windows —
    and the two standing leak invariants (pending entries the history
    forgot; member-index entries without a carrier) must hold.  The raw
    pending-set *size* is deliberately not asserted: entries legitimately
    wait for the next flush GC pass, which is exactly why the leak gauge
    isolates forgotten-but-still-pending ids instead.

    These are the same quantities :meth:`FlexCastGroup.attach_obs` exposes
    as gauges, so "the gauges read zero" and "this oracle passes" are one
    statement.
    """
    violations: List[str] = []
    for gid, group in groups.items():
        if not isinstance(group, FlexCastGroup):
            continue
        checks = [
            ("queue depth", sum(len(q) for q in group.queues.values())),
            ("open dependencies", len(group.open_dependencies())),
            ("parked notifications", len(group.pending_notifications)),
            (
                "undecided timestamp entries",
                group.ts.pending_count() if group.ts is not None else 0,
            ),
            ("leaked pending entries", group._leaked_pending_entries()),
            ("member-index orphans", group._member_index_orphans()),
        ]
        for what, count in checks:
            if count:
                violations.append(
                    f"[leak] group {gid}: {count} {what} remain after a "
                    f"clean run"
                )
    if batcher is not None and batcher.buffered:
        violations.append(
            f"[leak] client: {batcher.buffered} messages still buffered in "
            f"open batch windows after a clean run"
        )
    return violations


# ------------------------------------------------------------------ flexcast
def scenario_conflict_shapes(scenario: FuzzScenario) -> Tuple[frozenset, ...]:
    """The destination-shape universe a scenario declares: every global
    destination set it can submit, plus the all-groups shape used by GC
    flushes and epoch barriers."""
    shapes = {frozenset(sub.dst) for sub in scenario.submissions}
    shapes.add(frozenset(scenario.order))
    return tuple(sorted(
        (s for s in shapes if len(s) > 1),
        key=lambda s: sorted(map(str, s)),
    ))


#: Names of the three :class:`Exposure` constructors, for the fuzz surfaces
#: that pick one by name (harness, explorer, their CLIs).
EXPOSURE_MODES = ("none", "declared", "all")


def exposure_for(mode: str, shapes: Iterable[frozenset]) -> Exposure:
    """The exposure named ``mode``; ``shapes`` is the universe to declare,
    read only by ``"declared"``."""
    if mode == "none":
        return Exposure.none()
    if mode == "declared":
        return Exposure.declared(shapes)
    if mode == "all":
        return Exposure.all()
    raise ValueError(f"unknown exposure {mode!r} (know {EXPOSURE_MODES})")


def _run_flexcast(
    scenario: FuzzScenario,
    exposure: str,
    use_batching_client: bool = False,
    obs: Optional[Observability] = None,
) -> FuzzResult:
    loop = EventLoop()
    latencies = _latency_matrix(scenario)
    network = Network(
        loop, latencies, jitter_ms=scenario.jitter_ms, seed=scenario.net_seed
    )
    overlay = CDagOverlay(list(scenario.order))
    reconfigurable = bool(scenario.reconfigs)
    protocol_class = (
        ReconfigurableFlexCastProtocol if reconfigurable else FlexCastProtocol
    )
    protocol = protocol_class(
        overlay,
        exposure=exposure_for(exposure, scenario_conflict_shapes(scenario)),
    )

    sink = RecordingSink(clock=lambda: loop.now)
    groups: Dict[GroupId, object] = {}
    delivery_epochs: Dict[GroupId, List[Tuple[str, int]]] = {
        gid: [] for gid in scenario.order
    }

    def make_sink(gid):
        def epoch_sink(group_id, message):
            sink(group_id, message)
            delivery_epochs[gid].append((message.msg_id, groups[gid].epoch))

        return epoch_sink

    for gid in scenario.order:
        group = protocol.create_group(gid, SimTransport(network, gid), make_sink(gid))
        groups[gid] = group
        if obs is not None:
            group.attach_obs(obs)
        network.register(gid, site=int(gid) % latencies.num_sites, handler=group.on_envelope)
    network.register(CLIENT, site=0, handler=lambda s, p: None)

    coordinator: Optional[EpochCoordinator] = None
    if reconfigurable:
        coordinator = EpochCoordinator(
            node_id=COORDINATOR,
            transport=SimTransport(network, COORDINATOR),
            protocol=protocol,
        )
        network.register(COORDINATOR, site=0, handler=coordinator.on_message)
        for reconfig in scenario.reconfigs:
            def fire(order=reconfig.order):
                # Overlapping switches are illegal; skip if one is running.
                if coordinator.state == "idle":
                    coordinator.trigger_switch(list(order))

            loop.schedule_at(reconfig.at_ms, fire)

    if scenario.profile == "dup":
        network.set_drop_filter(
            EnvelopeFaultFilter(
                network, scenario.profile_rate, scenario.profile_seed, "dup"
            )
        )
    elif scenario.profile == "loss":
        network.set_drop_filter(
            EnvelopeFaultFilter(
                network, scenario.profile_rate, scenario.profile_seed, "drop"
            )
        )

    batcher: Optional[BatchingClient] = None
    if use_batching_client or scenario.batch_window > 1:
        batcher = BatchingClient(
            CLIENT,
            protocol,
            send_request=lambda gid, envelope: network.send(CLIENT, gid, envelope),
            clock=lambda: loop.now,
            max_batch=scenario.batch_window,
            max_delay_ms=scenario.batch_delay_ms,
            schedule=loop.schedule,
        )
        if obs is not None:
            batcher.attach_obs(obs)

    submissions = list(scenario.submissions) + _flush_submissions(scenario)
    messages: Dict[str, Message] = {}
    tiebreak: Dict[str, int] = {}
    for index, sub in enumerate(submissions):
        message = Message.create(
            destinations=sub.dst,
            sender=CLIENT,
            payload={"i": index},
            payload_bytes=sub.payload_bytes,
            msg_id=sub.msg_id,
            is_flush=sub.is_flush,
        )
        messages[message.msg_id] = message
        tiebreak[message.msg_id] = index

        def submit(message=message):
            if batcher is not None:
                batcher.submit(message)
            else:
                entry = protocol.entry_groups(message)[0]
                network.send(CLIENT, entry, ClientRequest(message=message))

        loop.schedule_at(sub.at_ms, submit)

    result = FuzzResult(scenario=scenario, submitted=len(submissions))
    try:
        result.events = loop.run_until_idle(max_events=MAX_EVENTS)
    except RuntimeError as exc:
        result.violations.append(f"[livelock] {exc}")
        return result

    if coordinator is not None:
        for barrier in coordinator.barrier_messages:
            messages[barrier.msg_id] = barrier
            tiebreak.setdefault(barrier.msg_id, len(tiebreak))

    sequences = {gid: sink.sequence(gid) for gid in scenario.order}
    result.sequences = sequences
    result.delivered = sum(len(s) for s in sequences.values())

    if batcher is not None:
        # The gate fans batches out into per-member deliveries, so the
        # sequences the standard oracle suite below sees are already
        # per-message — every existing invariant applies unchanged.  The
        # batching layer adds exactly one new obligation, checked here.
        result.batches = list(batcher.batch_log)
        result.violations.extend(
            _check_batch_atomicity(sequences, batcher.batch_log)
        )

    expect_all = scenario.expect_all_delivered
    report = check_trace(sink, messages.values(), expect_all_delivered=expect_all)
    result.violations.extend(str(v) for v in report.violations)

    replay = check_sequential_replay(
        sequences, messages, expect_all_delivered=expect_all, tiebreak=tiebreak
    )
    result.violations.extend(str(v) for v in replay.violations)

    if expect_all:
        conservation = conservation_check(sequences, messages)
        result.violations.extend(str(v) for v in conservation.violations)
        # Clean run: the per-message machinery must have wound down too.
        result.violations.extend(_check_leaks(groups, batcher))

    if coordinator is not None:
        epoch_report = check_epochs(delivery_epochs, barriers=coordinator.barriers)
        result.violations.extend(str(v) for v in epoch_report.violations)

    result.finalize_buckets(strict=exposure != "none")
    return result


# ---------------------------------------------------------------- replicated
def _run_replicated(
    scenario: FuzzScenario,
    obs: Optional[Observability] = None,
) -> FuzzResult:
    """Crash-profile runs: one multi-Paxos replicated group.

    Replicas persist to a shared :class:`InMemoryStorage` (the simulated
    "disk" that survives a crash); scripted :class:`Restart` events tear a
    crashed replica down to that persisted state and reboot it mid-run, and
    the recovery oracle then checks its delivery sequence across the restart
    boundary.  With ``client_retries`` > 0 a bounded resubmit-on-timeout
    layer re-sends undelivered requests, so full delivery stays in the
    oracle's contract even when requests die with a crashing replica.
    """
    loop = EventLoop()
    base = scenario.uniform_ms
    latencies = LatencyMatrix(
        matrix=[[0.3, base], [base, 0.3]], names=["group", "clients"]
    )
    network = Network(
        loop, latencies, jitter_ms=scenario.jitter_ms, seed=scenario.net_seed
    )
    protocol = FlexCastProtocol(CDagOverlay([0]))

    sink = RecordingSink(clock=lambda: loop.now)
    delivered_ids: set = set()

    def recording_sink(group_id: GroupId, message: Message) -> None:
        delivered_ids.add(message.msg_id)
        sink(group_id, message)

    storage = InMemoryStorage()
    group = ReplicatedGroup(
        group_id=0,
        protocol=protocol,
        network=network,
        site=0,
        sink=recording_sink,
        replication_factor=scenario.replication_factor,
        storage=storage,
    )
    if obs is not None:
        group.attach_obs(obs)
    network.register(CLIENT, site=1, handler=lambda s, p: None)

    # Crashes first: at equal virtual times they precede submissions, so the
    # "submitted after the crash" expectation below is well defined.  Each
    # crash snapshots the victim's delivery sequence for the recovery oracle.
    crash_times = []
    pre_crash: Dict[int, List[str]] = {}
    for crash in scenario.crashes:
        def fire(index=crash.replica):
            if index not in group._crashed_indices and len(
                group._crashed_indices
            ) < scenario.replication_factor - 1:
                pre_crash[index] = list(group.replicas[index].local_deliveries)
                group.crash_replica(index, network)

        crash_times.append(crash.at_ms)
        loop.schedule_at(crash.at_ms, fire)

    # Restarts: reboot a crashed replica from its persisted state.  The new
    # incarnation is tracked so the oracle can compare it against the
    # pre-crash snapshot and against a never-crashed survivor.
    restarted: Dict[int, object] = {}
    restart_times: List[float] = []
    for restart in scenario.restarts:
        def reboot(index=restart.replica):
            if index in group._crashed_indices:
                restarted[index] = group.restart_replica(index, network)

        restart_times.append(restart.at_ms)
        loop.schedule_at(restart.at_ms, reboot)

    messages: Dict[str, Message] = {}
    resubmitter: Optional[BoundedResubmitter] = None
    if scenario.client_retries > 0:
        # One timeout period comfortably covers a client->group round trip
        # plus SMR ordering; deterministic (pure function of the scenario).
        resubmitter = BoundedResubmitter(
            resend=lambda msg_id: network.send(
                CLIENT, group.leader.replica_id, ClientRequest(message=messages[msg_id])
            ),
            is_settled=lambda msg_id: msg_id in delivered_ids,
            schedule=loop.schedule,
            timeout_ms=scenario.uniform_ms * 8 + 50.0,
            max_retries=scenario.client_retries,
        )

    for index, sub in enumerate(scenario.submissions):
        message = Message.create(
            destinations=(0,),
            sender=CLIENT,
            payload={"i": index},
            payload_bytes=sub.payload_bytes,
            msg_id=sub.msg_id,
        )
        messages[message.msg_id] = message

        def submit(message=message):
            network.send(CLIENT, group.leader.replica_id, ClientRequest(message=message))
            if resubmitter is not None:
                resubmitter.track(message.msg_id)

        loop.schedule_at(sub.at_ms, submit)

    result = FuzzResult(scenario=scenario, submitted=len(scenario.submissions))
    try:
        result.events = loop.run_until_idle(max_events=MAX_EVENTS)
    except RuntimeError as exc:
        result.violations.append(f"[livelock] {exc}")
        return result

    delivered = sink.sequence(0)
    result.sequences = {0: delivered}
    result.delivered = len(delivered)

    # Safety: exactly-once, only-submitted.
    seen = set()
    for msg_id in delivered:
        if msg_id in seen:
            result.violations.append(f"[smr-integrity] {msg_id} delivered twice")
        seen.add(msg_id)
        if msg_id not in messages:
            result.violations.append(
                f"[smr-integrity] {msg_id} delivered but never submitted"
            )

    # Agreement: every active replica's own protocol copy delivered the same
    # sequence (restarted replicas included — they are full members again).
    active = [
        replica
        for index, replica in enumerate(group.replicas)
        if index not in group._crashed_indices
    ]
    reference_seq: Optional[List[str]] = None
    for index, replica in enumerate(group.replicas):
        if index not in group._crashed_indices and index not in restarted:
            reference_seq = list(replica.local_deliveries)
            break
    for replica in active[1:]:
        if replica.local_deliveries != active[0].local_deliveries:
            result.violations.append(
                "[smr-agreement] surviving replicas applied different sequences"
            )
            break

    # Recovery oracle: each rebooted replica's sequence across its restart.
    for index, replica in restarted.items():
        report = check_recovery(
            pre_crash=pre_crash.get(index, []),
            rejoined=replica.local_deliveries,
            reference=reference_seq,
            replica=str(replica.replica_id),
        )
        result.violations.extend(str(v) for v in report.violations)

    if scenario.expect_all_delivered:
        # With the client retry layer on, *every* submission must land.
        missing = set(messages) - set(delivered)
        if missing:
            result.violations.append(
                f"[smr-validity] {len(missing)} submissions never delivered "
                f"despite retries: {sorted(missing)[:5]}"
            )
        if resubmitter is not None:
            stuck = sorted(set(resubmitter.exhausted) - set(delivered))
            if stuck:
                result.violations.append(
                    f"[smr-validity] retry budget exhausted for {stuck[:5]}"
                )
    else:
        # Liveness across fail-over: everything submitted strictly after the
        # last crash reached the application (earlier in-flight requests may
        # be lost with the crashing replica when retries are off).
        last_crash = max(crash_times, default=-1.0)
        expected_after = {
            sub.msg_id for sub in scenario.submissions if sub.at_ms > last_crash
        }
        missing = expected_after - set(delivered)
        if missing:
            result.violations.append(
                f"[smr-failover] {len(missing)} post-crash submissions never "
                f"delivered: {sorted(missing)[:5]}"
            )
    return result
