"""Run one fuzz scenario on the deterministic simulator and check it.

The harness deploys the scenario's protocol stack (FlexCast groups, each
bare or, when the scenario replicates, a multi-Paxos :class:`ReplicatedGroup`
whose replicas the scenario may crash and reboot), drives the explicit submission
schedule, then runs the *full* oracle suite over the captured trace — one
path and one suite, whatever the scenario hosts:

* :func:`repro.checker.check_trace` — integrity, validity/agreement (when the
  profile keeps liveness), prefix order, acyclic order: each of the paper's
  properties once;
* replica agreement and :func:`repro.checker.check_recovery` for every
  replicated group (whatever a replica's restart must not lose, duplicate or
  reorder);
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

import resource
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from ..checker.properties import CheckReport, check_trace
from ..checker.recovery import check_recovery
from ..core.batching import BatchingClient
from ..core.flexcast import FlexCastGroup, FlexCastProtocol
from ..core.message import ClientRequest, Message
from ..obs import Observability
from ..overlay.base import GroupId
from ..overlay.cdag import CDagOverlay
from ..protocols.base import RecordingSink
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

#: Event budget per run; exceeding it is reported as a livelock violation.
MAX_EVENTS = 3_000_000


@dataclass
class FuzzResult:
    """Outcome of one scenario run.

    :attr:`violations` holds every finding of every oracle the run got: each
    property the protocol guarantees, under every profile, liveness (no
    livelock) included.  A lost envelope stops its channel
    (:mod:`repro.core.flexcast`), so a ``loss`` run is held to acyclic order
    like any other; only full delivery is waived there.
    """

    scenario: FuzzScenario
    violations: List[str] = field(default_factory=list)
    submitted: int = 0
    delivered: int = 0
    events: int = 0
    #: Per-group delivery sequences (msg ids), for diagnosis and tests.
    sequences: Dict[Hashable, List[str]] = field(default_factory=dict)
    #: Batches the client shipped: ``(batch_id, member msg_ids)`` in send
    #: order (empty when the scenario runs unbatched).  Input to the
    #: batch-atomicity oracle and to tests.
    batches: List[Tuple[str, Tuple[str, ...]]] = field(default_factory=list)
    #: Replicas rebooted mid-run — a sweep reports them, since one that never
    #: reboots proves nothing about the recovery path.
    restarts: int = 0

    @property
    def ok(self) -> bool:
        """No violation of a guaranteed property."""
        return not self.violations


def peak_rss_mib() -> float:
    """This process's peak resident set so far, in MiB (Linux reports KiB),
    which the fuzz CLIs print on their summary lines."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


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
    use_batching_client: bool = False,
    obs: Optional[Observability] = None,
) -> FuzzResult:
    """Execute ``scenario`` deterministically and return the checked result.

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
    return _run_flexcast(scenario, use_batching_client, obs)


def check_deliveries(
    sink: RecordingSink,
    order: Iterable[GroupId],
    messages: Dict[str, Message],
    expect_all_delivered: bool = True,
) -> Tuple[Dict[GroupId, List[str]], List[str]]:
    """The oracle core every run gets, fuzzed or explored: ``check_trace``.
    Returns the per-group sequences and the findings."""
    sequences = {gid: sink.sequence(gid) for gid in order}
    report = check_trace(
        sink, messages.values(), expect_all_delivered=expect_all_delivered
    )
    return sequences, [str(v) for v in report.violations]


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
    groups: Dict[GroupId, FlexCastGroup], batcher: Optional[BatchingClient]
) -> List[str]:
    """End-of-run resource-leak oracle (clean runs only).

    After a run where every submission was delivered and the loop went idle,
    the per-message machinery must have wound down: no queued messages, no
    parked notifications, no open windows —
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
        checks = [
            ("queue depth", sum(len(q) for q in group.queues.values())),
            ("open dependencies", len(group.open_dependencies())),
            ("parked notifications", len(group.pending_notifications)),
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
def _run_flexcast(
    scenario: FuzzScenario,
    use_batching_client: bool = False,
    obs: Optional[Observability] = None,
) -> FuzzResult:
    if (scenario.crashes or scenario.restarts) and scenario.replication_factor < 2:
        raise ValueError("crashes and restarts need replication_factor > 1")
    network = Network(
        EventLoop(),
        _latency_matrix(scenario),
        jitter_ms=scenario.jitter_ms,
        seed=scenario.net_seed,
    )
    #: Each group of the scenario: the bare protocol group, or — when the
    #: scenario replicates — a ReplicatedGroup around ``replication_factor``
    #: copies of it, the way ``ProcessCluster`` hosts it.
    hosts: Dict[GroupId, object] = {}
    try:
        return _run_deployment(scenario, use_batching_client, obs, network, hosts)
    finally:
        # The result holds none of the deployment: closed, it is freed by
        # reference counting (DESIGN.md, "Lifetimes").
        for host in hosts.values():
            if isinstance(host, ReplicatedGroup):
                host.close()
        # Every host's sink answers the client, whose requests find the
        # hosts through this dict: drop the dict's half of that cycle.
        hosts.clear()
        network.close()
        network.loop.close()


def _run_deployment(
    scenario: FuzzScenario,
    use_batching_client: bool,
    obs: Optional[Observability],
    network: Network,
    hosts: Dict[GroupId, object],
) -> FuzzResult:
    """Deploy ``scenario`` on ``network`` — each group's host goes into
    ``hosts``, for the caller to close — drive it, and check it."""
    replicated = scenario.replication_factor > 1
    loop = network.loop
    latencies = network.latencies
    protocol = FlexCastProtocol(CDagOverlay(list(scenario.order)))

    sink = RecordingSink(clock=lambda: loop.now)
    batcher: Optional[BatchingClient] = None
    #: Delivered at some destination, hence ordered by its entry group.
    delivered_ids: Set[str] = set()

    def recording_sink(group_id, message):
        sink(group_id, message)
        delivered_ids.add(message.msg_id)
        if batcher is not None:
            # The group's response, as the client's idle trigger hears it.
            batcher.on_response(group_id, message.msg_id)

    # The disks: one store for every replica's WALs, which outlives a crash.
    storage = InMemoryStorage()
    for gid in scenario.order:
        site = int(gid) % latencies.num_sites
        if replicated:
            host = ReplicatedGroup(
                group_id=gid,
                protocol=protocol,
                network=network,
                site=site,
                sink=recording_sink,
                replication_factor=scenario.replication_factor,
                storage=storage,
            )
        else:
            host = protocol.create_group(gid, SimTransport(network, gid), recording_sink)
            network.register(gid, site=site, handler=host.on_envelope)
        hosts[gid] = host
        if obs is not None:
            host.attach_obs(obs)
    # A one-group scenario's second site is the client's: its requests cross
    # a real link, so a crashing replica takes some of them with it.
    client_site = 1 if len(scenario.order) == 1 else 0
    network.register(CLIENT, site=client_site, handler=lambda s, p: None)

    def node_of(gid: GroupId):
        """Where a client reaches group ``gid`` right now."""
        return hosts[gid].leader.replica_id if replicated else gid

    # Crashes and restarts are scheduled before the submissions, so at equal
    # virtual times they come first.  A crash snapshots the victim's delivery
    # sequence for the recovery oracle to hold against what the rebooted
    # incarnation ends the run with.
    pre_crash: Dict[Tuple[GroupId, int], List[str]] = {}
    restarted: Set[Tuple[GroupId, int]] = set()
    for crash in scenario.crashes:
        def crash_replica(gid=crash.group, index=crash.replica):
            down = hosts[gid]._crashed_indices
            # Never the last one standing: a group does not fail as a whole.
            if index not in down and len(down) < scenario.replication_factor - 1:
                pre_crash[gid, index] = list(
                    hosts[gid].replicas[index].local_deliveries
                )
                hosts[gid].crash_replica(index, network)

        loop.schedule_at(crash.at_ms, crash_replica)
    for restart in scenario.restarts:
        def restart_replica(gid=restart.group, index=restart.replica):
            if index in hosts[gid]._crashed_indices:
                hosts[gid].restart_replica(index, network)
                restarted.add((gid, index))

        loop.schedule_at(restart.at_ms, restart_replica)

    fault_mode = {"dup": "dup", "loss": "drop"}.get(scenario.profile)
    if fault_mode is not None:
        network.set_drop_filter(
            EnvelopeFaultFilter(
                network, scenario.profile_rate, scenario.profile_seed, fault_mode
            )
        )

    # Every client request, batched or not, leaves through send_request.  With
    # ``client_retries`` it is re-sent, to whoever leads its entry group by
    # then, until one of its destinations has delivered what it carries: a
    # request that died with a crashing replica is not lost, so full delivery
    # stays in the oracle's contract.  Re-submission is idempotent end to end.
    requests: Dict[str, Tuple[GroupId, ClientRequest]] = {}

    def resend(key: str) -> None:
        gid, request = requests[key]
        network.send(CLIENT, node_of(gid), request)

    def is_settled(key: str) -> bool:
        message = requests[key][1].message
        return all(
            m.msg_id in delivered_ids for m in message.members or (message,)
        )

    resubmitter: Optional[BoundedResubmitter] = None
    if scenario.client_retries > 0:
        resubmitter = BoundedResubmitter(
            resend=resend,
            is_settled=is_settled,
            schedule=loop.schedule,
            # Comfortably a client->group round trip plus SMR ordering.
            timeout_ms=scenario.uniform_ms * 8 + 50.0,
            max_retries=scenario.client_retries,
        )

    def send_request(gid: GroupId, request: ClientRequest) -> None:
        requests[request.message.msg_id] = (gid, request)
        resend(request.message.msg_id)
        if resubmitter is not None:
            resubmitter.track(request.message.msg_id)

    if use_batching_client or scenario.batch_window > 1:
        batcher = BatchingClient(
            CLIENT,
            protocol,
            send_request=send_request,
            clock=lambda: loop.now,
            max_batch=scenario.batch_window,
            max_delay_ms=scenario.batch_delay_ms,
            schedule=loop.schedule,
        )
        if obs is not None:
            batcher.attach_obs(obs)

    submissions = list(scenario.submissions) + _flush_submissions(scenario)
    messages: Dict[str, Message] = {}
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

        def submit(message=message):
            if batcher is not None:
                batcher.submit(message)
            else:
                entry = protocol.entry_groups(message)[0]
                send_request(entry, ClientRequest(message=message))

        loop.schedule_at(sub.at_ms, submit)

    result = FuzzResult(scenario=scenario, submitted=len(submissions))
    try:
        result.events = loop.run_until_idle(max_events=MAX_EVENTS)
    except RuntimeError as exc:
        result.violations.append(f"[livelock] {exc}")
        return result

    expect_all = scenario.expect_all_delivered
    result.sequences, result.violations = check_deliveries(
        sink, scenario.order, messages, expect_all
    )
    result.delivered = sum(len(s) for s in result.sequences.values())
    result.restarts = len(restarted)
    # The protocol copy that speaks for each group: its own, or its leader's.
    copies = {
        gid: host.leader.protocol_state if replicated else host
        for gid, host in hosts.items()
    }

    if batcher is not None:
        # The gate fans batches out into per-member deliveries, so the
        # sequences the oracle core saw are already per-message — every
        # invariant applies unchanged.  The batching layer adds exactly one
        # new obligation, checked here.
        result.batches = list(batcher.batch_log)
        result.violations.extend(
            _check_batch_atomicity(result.sequences, batcher.batch_log)
        )
    if expect_all:
        # Clean run: the per-message machinery must have wound down too.
        result.violations.extend(_check_leaks(copies, batcher))
    if replicated:
        result.violations.extend(
            str(v)
            for report in _check_replicas(hosts, pre_crash, restarted)
            for v in report.violations
        )
    return result


# ------------------------------------------------------------- replica oracle
def _check_replicas(
    hosts: Dict[GroupId, ReplicatedGroup],
    pre_crash: Dict[Tuple[GroupId, int], List[str]],
    restarted: Set[Tuple[GroupId, int]],
) -> List[CheckReport]:
    """What replication adds to the oracle suite, per replicated group.

    Agreement: every live replica's own protocol copy delivered the same
    sequence (restarted replicas included — they are full members again).
    Recovery (:func:`check_recovery`): each rebooted replica's sequence
    across its restart, against its pre-crash snapshot and against a replica
    that was never down.
    """
    agreement = CheckReport()
    reports = [agreement]
    for gid, host in hosts.items():
        live = {
            index: replica
            for index, replica in enumerate(host.replicas)
            if index not in host._crashed_indices
        }
        if len({replica.delivery_hash.digest() for replica in live.values()}) > 1:
            agreement.add(
                "smr-agreement",
                f"group {gid}: surviving replicas applied different sequences",
            )
        never_down = [r for i, r in live.items() if (gid, i) not in restarted]
        reports.extend(
            check_recovery(
                pre_crash=pre_crash.get((gid, index), []),
                rejoined=replica.local_deliveries,
                reference=never_down[0].local_deliveries if never_down else None,
                replica=str(replica.replica_id),
            )
            for index, replica in live.items()
            if (gid, index) in restarted
        )
    return reports
