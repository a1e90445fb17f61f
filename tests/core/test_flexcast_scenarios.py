"""The three executions of Figure 3 in the paper, replayed against group C.

Each scenario feeds group C (the highest group of the A -> B -> C overlay) the
exact adversarial arrival order discussed in §4.1 and checks that C still
delivers messages in an order consistent with the rest of the system.
"""

import pytest

from repro.core.flexcast import FlexCastGroup
from repro.core.message import (
    EMPTY_DELTA,
    FlexCastAck,
    FlexCastMsg,
    FlexCastNotif,
    HistoryDelta,
    Message,
)
from repro.overlay.cdag import CDagOverlay
from repro.protocols.base import RecordingSink
from repro.sim.transport import RecordingTransport

A, B, C = "A", "B", "C"


@pytest.fixture
def overlay():
    return CDagOverlay([A, B, C])


def make_c(overlay):
    transport = RecordingTransport(C)
    sink = RecordingSink()
    return FlexCastGroup(C, overlay, transport, sink), sink


def msg(mid, dst):
    return Message(msg_id=mid, dst=frozenset(dst))


def delta(vertices, edges=()):
    return HistoryDelta(
        vertices=tuple((mid, frozenset(dst)) for mid, dst in vertices),
        edges=tuple(edges),
    )


class TestFigure3aHistories:
    """Scenario (a): m1 ≺ m2 at A and m2 ≺ m3 at B force m1 ≺ m3 at C,
    even though C receives m3 (from B) before m1 (from A)."""

    def test_c_delivers_m1_before_m3(self, overlay, seq):
        group, sink = make_c(overlay)
        m1 = msg("m1", {A, C})
        m3 = msg("m3", {B, C})
        # B's forward of m3 carries B's history: m1 -> m2 -> m3.
        history_from_b = delta(
            [("m1", {A, C}), ("m2", {A, B}), ("m3", {B, C})],
            edges=[("m1", "m2"), ("m2", "m3")],
        )
        group.on_envelope(
            B, FlexCastMsg(message=m3, history=history_from_b, seq=seq(B, C))
        )
        assert sink.sequence(C) == []  # m3 must wait: m1 precedes it and is addressed to C
        group.on_envelope(
            A, FlexCastMsg(message=m1, history=delta([("m1", {A, C})]), seq=seq(A, C))
        )
        assert sink.sequence(C) == ["m1", "m3"]


class TestFigure3bAcks:
    """Scenario (b): B delivers m1 before m2; C hears about m2 (from A) first
    and must wait for B's ack before delivering it."""

    def test_c_delivers_m1_before_m2(self, overlay, seq):
        group, sink = make_c(overlay)
        m1 = msg("m1", {B, C})
        m2 = msg("m2", {A, B, C})
        group.on_envelope(
            A,
            FlexCastMsg(message=m2, history=delta([("m2", {A, B, C})]), seq=seq(A, C)),
        )
        assert sink.sequence(C) == []  # waiting for B's ack on m2
        group.on_envelope(
            B, FlexCastMsg(message=m1, history=delta([("m1", {B, C})]), seq=seq(B, C))
        )
        assert sink.sequence(C) == ["m1"]
        group.on_envelope(
            B,
            FlexCastAck(
                message=m2,
                history=delta(
                    [("m1", {B, C}), ("m2", {A, B, C})], edges=[("m1", "m2")]
                ),
                from_group=B,
                seq=seq(B, C),
            ),
        )
        assert sink.sequence(C) == ["m1", "m2"]


class TestFigure3cNotifs:
    """Scenario (c): the dependency m1 -> m2 is created at B *after* B talked
    to C, so only a notif from A makes B push its history (and an ack) to C."""

    def test_c_delivers_m1_before_m3(self, overlay, seq):
        group, sink = make_c(overlay)
        m1 = msg("m1", {B, C})
        m3 = msg("m3", {A, C})
        # A forwards m3 with its own history (m2 -> m3) and the fact that it
        # notified B: the pair (B, A).
        group.on_envelope(
            A,
            FlexCastMsg(
                message=m3,
                history=delta([("m2", {A, B}), ("m3", {A, C})], edges=[("m2", "m3")]),
                notified=frozenset({(B, A)}),
                seq=seq(A, C),
            ),
        )
        assert sink.sequence(C) == []  # waits for B's ack
        # B's ack (triggered by the notif) carries m1 -> m2; now C knows the
        # full chain m1 -> m2 -> m3 but m1 is still missing.
        group.on_envelope(
            B,
            FlexCastAck(
                message=m3,
                history=delta([("m1", {B, C})], edges=[("m1", "m2")]),
                from_group=B,
                notifier=A,
                seq=seq(B, C),
            ),
        )
        assert sink.sequence(C) == []
        # m1 finally arrives from its lca B; everything unblocks in order.
        group.on_envelope(
            B, FlexCastMsg(message=m1, history=EMPTY_DELTA, seq=seq(B, C))
        )
        assert sink.sequence(C) == ["m1", "m3"]

    def test_without_waiting_for_notified_ack_order_would_break(self, overlay, seq):
        """Ablation guard: if C ignored the notified list it would deliver m3
        before learning that m1 precedes it — exactly the violation Strategy
        (c) exists to prevent.  This documents why the mechanism is needed."""
        group, sink = make_c(overlay)
        m3 = msg("m3", {A, C})
        group.on_envelope(
            A,
            FlexCastMsg(
                message=m3,
                history=delta([("m2", {A, B}), ("m3", {A, C})], edges=[("m2", "m3")]),
                notified=frozenset(),  # pretend A never notified B
                seq=seq(A, C),
            ),
        )
        # Without the notified entry C has no reason to wait and delivers m3
        # immediately — demonstrating the ordering hazard the notif closes.
        assert sink.sequence(C) == ["m3"]


class TestEndToEndOnSimulatedNetwork:
    """Same scenarios, but executed end-to-end through the simulator with
    latencies chosen to force the adversarial arrival orders."""

    def _deploy(self, latency_rows):
        from repro.sim.events import EventLoop
        from repro.sim.latencies import LatencyMatrix
        from repro.sim.network import Network
        from repro.sim.transport import SimTransport

        loop = EventLoop()
        matrix = LatencyMatrix(matrix=latency_rows, names=["a", "b", "c"], local_latency=0.1)
        network = Network(loop, matrix)
        overlay = CDagOverlay([A, B, C])
        sink = RecordingSink()
        groups = {}
        for site, gid in enumerate([A, B, C]):
            group = FlexCastGroup(gid, overlay, SimTransport(network, gid), sink)
            groups[gid] = group
            network.register(gid, site=site, handler=group.on_envelope)
        return loop, network, groups, sink

    def test_scenario_a_end_to_end(self):
        # A -> C is slow (100 ms); A -> B and B -> C are fast, so C receives
        # m3 (via B) before m1 (direct from A).
        loop, network, groups, sink = self._deploy(
            [[0.1, 5, 100], [5, 0.1, 5], [100, 5, 0.1]]
        )
        groups[A].on_client_request(Message(msg_id="m1", dst=frozenset({A, C})))
        groups[A].on_client_request(Message(msg_id="m2", dst=frozenset({A, B})))
        loop.run(until=20.0)
        groups[B].on_client_request(Message(msg_id="m3", dst=frozenset({B, C})))
        loop.run_until_idle()
        c_order = sink.sequence(C)
        assert c_order.index("m1") < c_order.index("m3")

    def test_scenario_b_end_to_end(self):
        # A -> C fast, B -> C slower: C hears about m2 from A before m1 from B.
        loop, network, groups, sink = self._deploy(
            [[0.1, 5, 5], [5, 0.1, 60], [5, 60, 0.1]]
        )
        groups[B].on_client_request(Message(msg_id="m1", dst=frozenset({B, C})))
        loop.run(until=2.0)
        groups[A].on_client_request(Message(msg_id="m2", dst=frozenset({A, B, C})))
        loop.run_until_idle()
        c_order = sink.sequence(C)
        b_order = sink.sequence(B)
        assert b_order.index("m1") < b_order.index("m2")
        assert c_order.index("m1") < c_order.index("m2")

    def test_scenario_c_end_to_end(self):
        loop, network, groups, sink = self._deploy(
            [[0.1, 5, 5], [5, 0.1, 80], [5, 80, 0.1]]
        )
        groups[B].on_client_request(Message(msg_id="m1", dst=frozenset({B, C})))
        loop.run(until=10.0)
        groups[A].on_client_request(Message(msg_id="m2", dst=frozenset({A, B})))
        loop.run(until=20.0)
        groups[A].on_client_request(Message(msg_id="m3", dst=frozenset({A, C})))
        loop.run_until_idle()
        c_order = sink.sequence(C)
        assert c_order.index("m1") < c_order.index("m3")
        # No group ever received an application message it should not have.
        for gid, group in groups.items():
            assert group.delivered_count == len(sink.sequence(gid))
