"""A single-process durable group: restarting it from its replicated log.

A group that must survive a restart runs as a replicated log even when it has
one replica — ``ReplicatedGroup(replication_factor=1, storage=…)`` — so its
whole protocol state (history, queues, pending entries, channel numbers)
comes back by replaying the log, not from a private journal of the history
alone.  The restart cases run four such groups on AWS latencies with jitter,
bounce one of them mid-run with zero downtime while two- and
three-destination messages are in flight, and hold the recovery oracle plus
the full trace checker, every property of it.
"""

from __future__ import annotations

from random import Random

import pytest

from repro.checker.properties import check_trace
from repro.checker.recovery import check_recovery
from repro.core.flexcast import FlexCastProtocol
from repro.core.message import ClientRequest, Message
from repro.overlay.cdag import CDagOverlay
from repro.protocols.base import RecordingSink
from repro.sim.events import EventLoop
from repro.sim.latencies import aws_latency_matrix
from repro.sim.network import Network
from repro.smr.replica import ReplicatedGroup, replica_node
from repro.storage import InMemoryStorage

GROUPS = (0, 1, 2, 3)


def run_with_restarts(seed, victim, restart_times):
    """120 global messages over 600 virtual ms, re-submitted at +400/+900 ms
    while undelivered; ``victim`` is rebuilt from its storage at each of
    ``restart_times``.  Returns the trace report, the victim's delivery
    sequence at each restart, and its final one."""
    loop = EventLoop()
    network = Network(loop, aws_latency_matrix(), jitter_ms=2.0, seed=seed)
    protocol = FlexCastProtocol(CDagOverlay(list(GROUPS)))
    sink = RecordingSink(clock=lambda: loop.now)
    groups = {
        gid: ReplicatedGroup(
            gid, protocol, network, site=gid, sink=sink,
            replication_factor=1, storage=InMemoryStorage(),
        )
        for gid in GROUPS
    }
    network.register("client", site=0, handler=lambda s, p: None)

    rng = Random(seed)
    messages = []
    for i in range(120):
        message = Message.create(
            rng.sample(GROUPS, rng.choice((2, 3))),
            sender="client", payload=i, payload_bytes=64, msg_id=f"m{i}",
        )
        messages.append(message)
        entry = replica_node(protocol.entry_groups(message)[0], 0)

        def submit(message=message, entry=entry):
            if any(message.msg_id not in sink.delivered_ids(g) for g in message.dst):
                network.send("client", entry, ClientRequest(message=message))

        at = rng.uniform(0.0, 600.0)
        for delay in (0.0, 400.0, 900.0):
            loop.schedule_at(at + delay, submit)

    pre_crash = []

    def bounce():
        pre_crash.append(list(groups[victim].replicas[0].local_deliveries))
        groups[victim].crash_replica(0, network)
        groups[victim].restart_replica(0, network)

    for at in restart_times:
        loop.schedule_at(at, bounce)
    loop.run_until_idle()
    report = check_trace(sink, messages, expect_all_delivered=True)
    return report, pre_crash, groups[victim].replicas[0].local_deliveries


def assert_clean(report):
    assert [str(v) for v in report.violations] == []


def test_cold_start_recovers_nothing():
    loop = EventLoop()
    network = Network(loop, aws_latency_matrix())
    group = ReplicatedGroup(
        0, FlexCastProtocol(CDagOverlay([0, 1])), network, site=0,
        sink=RecordingSink(), replication_factor=1, storage=InMemoryStorage(),
    )
    replica = group.replicas[0]
    assert replica.local_deliveries == []
    assert len(replica.smr.log) == 0
    assert len(replica.protocol_state.history) == 0


@pytest.mark.parametrize("victim", GROUPS)
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6, 7, 8])
def test_restarted_group_resumes_its_delivered_sequence(seed, victim):
    report, pre_crash, final = run_with_restarts(seed, victim, [300.0])
    assert_clean(report)
    assert pre_crash[0], "restart landed before the victim delivered anything"
    assert len(final) > len(pre_crash[0])
    check_recovery(pre_crash[0], final).raise_if_failed()


@pytest.mark.parametrize("victim", [1, 2])
def test_twice_restarted_group_keeps_delivering_and_never_repeats(victim):
    report, pre_crash, final = run_with_restarts(7, victim, [200.0, 450.0])
    assert_clean(report)
    first, second = pre_crash
    assert 0 < len(first) < len(second) < len(final)
    assert len(set(final)) == len(final)
    for cut in pre_crash:
        check_recovery(cut, final).raise_if_failed()
