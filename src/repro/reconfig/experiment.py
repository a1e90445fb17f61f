"""Workload-shift experiment: the reconfiguration subsystem end to end.

Deploys reconfigurable FlexCast on a synthetic clustered WAN, runs a two-phase
workload whose client population moves mid-run
(:class:`repro.experiments.scenarios.WorkloadShiftScenario`), and — when
reconfiguration is enabled — lets the monitor → planner → epoch-coordinator
loop detect the shift and live-switch the overlay.  Running the same scenario
with ``with_reconfig=False`` gives the "stay on the stale overlay" baseline
the acceptance criterion compares against.

Everything is deterministic for a given scenario (zero network jitter; all
randomness is seeded), so the runs are directly comparable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..checker.properties import CheckReport, check_epochs, check_trace
from ..core.garbage import FlushCoordinator
from ..core.message import ClientRequest, ClientResponse, Message
from ..experiments.scenarios import TrafficPattern, WorkloadShiftScenario
from ..metrics import LatencyCollector
from ..obs import Observability
from ..overlay.base import GroupId
from ..overlay.cdag import CDagOverlay
from ..protocols.base import RecordingSink
from ..sim.events import EventLoop
from ..sim.latencies import clustered_latency_matrix
from ..sim.network import Network
from ..sim.transport import SimTransport
from ..workload.clients import ClosedLoopClient, CompletedTransaction
from ..workload.gtpcc import Transaction
from ..workload.tpcc import TransactionType
from .coordinator import EpochCoordinator, SwitchRecord
from .group import ReconfigurableFlexCastProtocol
from .monitor import WorkloadMonitor
from .planner import Planner

COORDINATOR_NODE = "reconfig-coordinator"


class PatternWorkload:
    """Duck-typed workload (same interface as ``GTPCCWorkload``) generating
    multicasts from a fixed :class:`TrafficPattern` per home."""

    def __init__(self, patterns: Dict[GroupId, TrafficPattern]) -> None:
        self._patterns = patterns

    def next_transaction(self, home: GroupId, rng: random.Random) -> Transaction:
        pattern = self._patterns[home]
        partners = list(pattern.partners)
        count = min(pattern.num_partners, len(partners))
        chosen = rng.sample(partners, count) if count else []
        return Transaction(
            txn_type=TransactionType.NEW_ORDER,
            home=home,
            destinations=frozenset({home, *chosen}),
            payload_bytes=pattern.payload_bytes,
        )


@dataclass
class WorkloadShiftResult:
    """Everything measured during one workload-shift run."""

    scenario: WorkloadShiftScenario
    with_reconfig: bool
    transactions: List[CompletedTransaction]
    deliveries: RecordingSink
    #: Per-group delivery sequence annotated with the delivering epoch.
    delivery_epochs: Dict[GroupId, List[Tuple[str, int]]]
    #: All messages multicast during the run (clients + epoch barriers).
    messages: List[Message]
    switches: List[SwitchRecord]
    barriers: Dict[str, int]
    final_order: Tuple[GroupId, ...]
    group_stats: Dict[GroupId, Dict[str, int]]
    trace_report: CheckReport = field(default_factory=CheckReport)
    epoch_report: CheckReport = field(default_factory=CheckReport)

    # ------------------------------------------------------------------ windows
    def transactions_between(
        self, start_ms: float, end_ms: Optional[float] = None
    ) -> List[CompletedTransaction]:
        return [
            t
            for t in self.transactions
            if t.completed_at >= start_ms
            and (end_ms is None or t.completed_at < end_ms)
        ]

    def mean_delivery_latency(
        self, start_ms: float = 0.0, end_ms: Optional[float] = None
    ) -> float:
        """Mean per-destination response latency over a completion window.

        This is the paper's latency metric (the 1st/2nd/... response each
        client records), averaged over every (transaction, destination) pair.
        """
        samples = [
            latency
            for t in self.transactions_between(start_ms, end_ms)
            for latency in t.latencies_by_arrival
        ]
        return sum(samples) / len(samples) if samples else float("nan")

    @property
    def switched(self) -> bool:
        return any(s.completed_ms is not None for s in self.switches)

    @property
    def switch_duration_ms(self) -> Optional[float]:
        """Cost of the first completed switch (prepare -> all groups resumed)."""
        for record in self.switches:
            if record.completed_ms is not None:
                return record.duration_ms
        return None

    def raise_if_unsafe(self) -> None:
        self.trace_report.raise_if_failed()
        self.epoch_report.raise_if_failed()


def run_workload_shift(
    scenario: WorkloadShiftScenario, with_reconfig: bool = True
) -> WorkloadShiftResult:
    """Run one workload-shift experiment (deterministic per scenario)."""
    latencies = clustered_latency_matrix(
        scenario.cluster_sizes,
        intra_ms=scenario.intra_ms,
        inter_ms=scenario.inter_ms,
    )
    protocol = ReconfigurableFlexCastProtocol(CDagOverlay(list(scenario.initial_order)))
    loop = EventLoop()
    network = Network(loop, latencies, jitter_ms=0.0, seed=scenario.seed)

    recording = RecordingSink(clock=lambda: loop.now)
    delivery_epochs: Dict[GroupId, List[Tuple[str, int]]] = {
        gid: [] for gid in protocol.groups
    }
    groups: Dict[GroupId, object] = {}

    def sink(group_id: GroupId, message: Message) -> None:
        recording(group_id, message)
        delivery_epochs[group_id].append((message.msg_id, groups[group_id].epoch))
        sender = message.sender
        if network.is_registered(sender):
            network.send(
                group_id, sender, ClientResponse(msg_id=message.msg_id, group=group_id)
            )

    for gid in protocol.groups:
        group = protocol.create_group(gid, SimTransport(network, gid), sink)
        groups[gid] = group

        def handler(sender, envelope, group=group):
            group.on_envelope(sender, envelope)

        network.register(gid, site=gid, handler=handler)

    # ------------------------------------------------------------ observation
    obs = Observability()
    collector = LatencyCollector()
    collector.attach_obs(obs)
    monitor = WorkloadMonitor(window_ms=scenario.monitor_window_ms)
    monitor.attach(obs)

    # ---------------------------------------------------------------- clients
    clients: List[ClosedLoopClient] = []

    def build_cohort(
        patterns: Tuple[TrafficPattern, ...],
        label: str,
        seed_offset: int,
        start_ms: float,
        stop_ms: float,
    ) -> None:
        workload = PatternWorkload({p.home: p for p in patterns})
        index = 0
        for pattern in patterns:
            for _ in range(pattern.clients):
                client = ClosedLoopClient(
                    client_id=f"client-{label}-{index}",
                    home=pattern.home,
                    protocol=protocol,
                    workload=workload,
                    network=network,
                    rng=random.Random(scenario.seed * 100_003 + seed_offset + index),
                    group_node=lambda g: g,
                    on_complete=collector.record,
                    stop_after_ms=stop_ms,
                    think_time_ms=scenario.think_time_ms,
                )
                clients.append(client)
                if start_ms <= 0:
                    client.start()
                else:
                    loop.schedule(start_ms, client.start)
                index += 1

    build_cohort(
        scenario.phase1, "p1", seed_offset=0, start_ms=0.0, stop_ms=scenario.shift_ms
    )
    build_cohort(
        scenario.phase2,
        "p2",
        seed_offset=10_000,
        start_ms=scenario.shift_ms,
        stop_ms=scenario.duration_ms,
    )

    # --------------------------------------------------- garbage collection
    flush_coordinator: Optional[FlushCoordinator] = None
    flush_messages: List[Message] = []
    if scenario.gc_interval_ms:
        flush_node = "flush-coordinator"
        network.register(
            flush_node, site=latencies.centroid_site(), handler=lambda s, p: None
        )

        def submit_flush(message: Message) -> None:
            flush_messages.append(message)
            entry = protocol.entry_groups(message)[0]
            network.send(flush_node, entry, ClientRequest(message=message))

        flush_coordinator = FlushCoordinator(
            loop,
            groups=list(protocol.groups),
            submit=submit_flush,
            interval_ms=scenario.gc_interval_ms,
            sender_id=flush_node,
        )
        flush_coordinator.start()

    # ------------------------------------------------------------- coordinator
    coordinator: Optional[EpochCoordinator] = None
    if with_reconfig:
        coordinator = EpochCoordinator(
            node_id=COORDINATOR_NODE,
            transport=SimTransport(network, COORDINATOR_NODE),
            protocol=protocol,
            monitor=monitor,
            planner=Planner(
                latencies,
                min_samples=scenario.min_samples,
                improvement_threshold=scenario.improvement_threshold,
            ),
            check_interval_ms=scenario.check_interval_ms,
        )
        network.register(
            COORDINATOR_NODE,
            site=latencies.centroid_site(),
            handler=coordinator.on_message,
        )
        coordinator.start()

    # --------------------------------------------------------------------- run
    loop.run(until=scenario.duration_ms)
    for client in clients:
        client.stop()
    if flush_coordinator is not None:
        flush_coordinator.stop()
    if coordinator is not None:
        coordinator.stop()
    loop.run_until_idle()

    # ----------------------------------------------------------------- results
    messages: List[Message] = list(flush_messages)
    for client in clients:
        assert not client._mc.inflight, "closed-loop client did not drain"
        messages.extend(call.message for call in client._mc.completed)
    barriers: Dict[str, int] = {}
    switches: List[SwitchRecord] = []
    if coordinator is not None:
        messages.extend(coordinator.barrier_messages)
        barriers = dict(coordinator.barriers)
        switches = list(coordinator.switches)

    result = WorkloadShiftResult(
        scenario=scenario,
        with_reconfig=with_reconfig,
        transactions=list(collector.transactions),
        deliveries=recording,
        delivery_epochs=delivery_epochs,
        messages=messages,
        switches=switches,
        barriers=barriers,
        final_order=tuple(protocol.overlay.order),
        group_stats={gid: dict(groups[gid].stats) for gid in protocol.groups},
        trace_report=check_trace(recording, messages, expect_all_delivered=True),
        epoch_report=check_epochs(delivery_epochs, barriers),
    )
    return result
