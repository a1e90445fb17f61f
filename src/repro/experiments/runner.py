"""Experiment runner: wires protocol + overlay + workload + simulator together.

``run_experiment`` is the single entry point every benchmark and example goes
through.  It deploys one group per AWS region on the simulated WAN, spreads
closed-loop gTPC-C clients over the regions, runs for the configured virtual
duration, lets in-flight transactions drain, and returns an
:class:`ExperimentResult` carrying everything the paper's figures need.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.flexcast import FlexCastProtocol
from ..core.garbage import FlushCoordinator
from ..core.message import (
    ClientRequest, ClientResponse, Message, PAYLOAD_KINDS, scoped_message_ids,
)
from ..metrics import LatencyCollector
from ..metrics.overhead import OverheadReport, compute_overhead
from ..overlay.base import GroupId
from ..overlay.builders import standard_overlays
from ..protocols.base import AtomicMulticastProtocol, RecordingSink
from ..protocols.hierarchical import HierarchicalProtocol
from ..protocols.skeen import SkeenProtocol
from ..sim.events import EventLoop
from ..sim.latencies import LatencyMatrix, aws_latency_matrix
from ..sim.network import Network, NodeTraffic
from ..sim.transport import SimTransport
from ..workload.clients import ClosedLoopClient
from ..workload.gtpcc import GTPCCConfig, GTPCCWorkload
from .config import (
    ExperimentConfig,
    PROTOCOL_DISTRIBUTED,
    PROTOCOL_FLEXCAST,
    PROTOCOL_HIERARCHICAL,
)

#: Uniform jitter (ms) added to each simulated link delay.
LINK_JITTER_MS = 2.0


def group_node(group_id: GroupId) -> GroupId:
    """Network node id used for a protocol group.

    Groups are addressed by their group id directly, because protocol code
    (FlexCast, Skeen, the tree protocol) sends envelopes to *group ids*;
    clients use string node ids so the namespaces never collide.
    """
    return group_id


def client_node(index: int) -> str:
    """Network node id used for a closed-loop client."""
    return f"client-{index}"


def build_protocol(
    config: ExperimentConfig, latencies: LatencyMatrix
) -> AtomicMulticastProtocol:
    """Instantiate the protocol + overlay pair described by ``config``."""
    overlays = standard_overlays(latencies)
    overlay = overlays[config.overlay]
    if config.protocol == PROTOCOL_FLEXCAST:
        return FlexCastProtocol(overlay)
    if config.protocol == PROTOCOL_HIERARCHICAL:
        return HierarchicalProtocol(overlay)
    if config.protocol == PROTOCOL_DISTRIBUTED:
        return SkeenProtocol(overlay)
    raise ValueError(f"unknown protocol {config.protocol!r}")


@dataclass
class ExperimentResult:
    """Everything measured during one run."""

    config: ExperimentConfig
    #: Latencies after trimming the warm-up/cool-down windows.
    latency: LatencyCollector
    #: Untrimmed latencies (kept for throughput and debugging).
    raw_latency: LatencyCollector
    throughput_ops_per_sec: float
    delivered_by_group: Dict[GroupId, int]
    payload_received_by_group: Dict[GroupId, int]
    overhead: OverheadReport
    traffic: Dict[GroupId, NodeTraffic]
    duration_ms: float
    issued: int
    completed: int
    #: Per-group delivery sequences (only when config.record_deliveries).
    deliveries: Optional[RecordingSink] = None
    #: The protocol groups themselves (for white-box assertions in tests).
    #: Their network is closed: it no longer leads back to them.
    groups: Dict[GroupId, object] = field(default_factory=dict)

    @property
    def label(self) -> str:
        return self.config.display_label

    def latency_table(self, ranks=(1, 2, 3), ps=(90, 95, 99)):
        """The paper's per-destination latency percentiles for this run."""
        return self.latency.percentile_table(ranks=ranks, ps=ps)


def run_experiment(
    config: ExperimentConfig, latencies: Optional[LatencyMatrix] = None
) -> ExperimentResult:
    """Run one experiment and return its measurements.

    The run is deterministic for a given (config, latency matrix) pair, in
    any process: its message ids are numbered from 0 in a scope of their
    own (:func:`~repro.core.message.scoped_message_ids`).  The deployment is
    closed before this returns, so the result reaches neither the loop's
    pending events nor the network's nodes, and dropping it frees the whole
    run by reference counting.
    """
    network = Network(
        EventLoop(),
        latencies or aws_latency_matrix(),
        jitter_ms=LINK_JITTER_MS,
        seed=config.seed,
    )
    try:
        with scoped_message_ids():
            return _run(config, network)
    finally:
        network.close()
        network.loop.close()


def _run(config: ExperimentConfig, network: Network) -> ExperimentResult:
    loop = network.loop
    latencies = network.latencies
    protocol = build_protocol(config, latencies)
    delivered_by_group: Dict[GroupId, int] = {g: 0 for g in protocol.groups}
    recording = RecordingSink(clock=lambda: loop.now) if config.record_deliveries else None

    def sink(group_id: GroupId, message: Message) -> None:
        delivered_by_group[group_id] += 1
        if recording is not None:
            recording(group_id, message)
        sender = message.sender
        if network.is_registered(sender):
            network.send(
                group_node(group_id), sender, ClientResponse(message.msg_id, group_id)
            )

    # ------------------------------------------------------------- groups
    groups: Dict[GroupId, object] = {}
    for gid in protocol.groups:
        node_id = group_node(gid)
        transport = SimTransport(network, node_id)
        group = protocol.create_group(gid, transport, sink)
        groups[gid] = group
        # Group `gid` is deployed in region `gid` (one warehouse per region).
        network.register(node_id, site=gid, handler=group.on_envelope)

    # ------------------------------------------------------------- workload
    workload = GTPCCWorkload(
        latencies,
        GTPCCConfig(locality=config.locality, global_only=config.global_only),
    )
    collector = LatencyCollector()
    clients: List[ClosedLoopClient] = []
    num_groups = len(protocol.groups)
    for i in range(config.num_clients):
        home = protocol.groups[i % num_groups]
        client = ClosedLoopClient(
            client_id=client_node(i),
            home=home,
            protocol=protocol,
            workload=workload,
            network=network,
            rng=random.Random(config.seed * 100_003 + i),
            group_node=group_node,
            on_complete=collector.record,
            stop_after_ms=config.duration_ms,
        )
        clients.append(client)

    # --------------------------------------------------- garbage collection
    flush_coordinator: Optional[FlushCoordinator] = None
    if config.protocol == PROTOCOL_FLEXCAST and config.gc_interval_ms:
        coordinator_node = "flush-coordinator"
        network.register(
            coordinator_node, site=latencies.centroid_site(), handler=lambda s, p: None
        )

        def submit_flush(message: Message) -> None:
            entry = protocol.entry_groups(message)[0]
            network.send(coordinator_node, group_node(entry), ClientRequest(message))

        flush_coordinator = FlushCoordinator(
            loop,
            groups=list(protocol.groups),
            submit=submit_flush,
            interval_ms=config.gc_interval_ms,
            sender_id=coordinator_node,
        )
        flush_coordinator.start()

    # ------------------------------------------------------------------ run
    for client in clients:
        client.start()
    loop.run(until=config.duration_ms)
    for client in clients:
        client.stop()
    if flush_coordinator is not None:
        flush_coordinator.stop()
    # Drain in-flight transactions so closed-loop calls complete.
    loop.run_until_idle()

    # -------------------------------------------------------------- metrics
    payload_received: Dict[GroupId, int] = {}
    traffic: Dict[GroupId, NodeTraffic] = {}
    for gid in protocol.groups:
        stats = network.traffic(group_node(gid))
        traffic[gid] = stats
        payload_received[gid] = sum(
            count for kind, count in stats.received_by_kind.items() if kind in PAYLOAD_KINDS
        )

    overhead = compute_overhead(delivered_by_group, payload_received, protocol.groups)
    trimmed = collector.trimmed()

    return ExperimentResult(
        config=config,
        latency=trimmed,
        raw_latency=collector,
        throughput_ops_per_sec=collector.throughput_ops_per_sec(),
        delivered_by_group=delivered_by_group,
        payload_received_by_group=payload_received,
        overhead=overhead,
        traffic=traffic,
        duration_ms=config.duration_ms,
        issued=sum(c.issued for c in clients),
        completed=sum(c.completed for c in clients),
        deliveries=recording,
        groups=groups,
    )
