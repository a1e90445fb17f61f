"""White-box unit tests for the FlexCast group logic.

Groups are driven directly with hand-crafted envelopes through a
RecordingTransport, which gives the tests full control over arrival order —
including the adversarial orderings of Figure 3 in the paper.
"""

import pytest

from repro.core.flexcast import FlexCastGroup, FlexCastProtocol
from repro.core.message import (
    ClientRequest,
    EMPTY_DELTA,
    FlexCastAck,
    FlexCastMsg,
    FlexCastNotif,
    FlexCastTsPropose,
    HistoryDelta,
    Message,
)
from repro.core.timestamps import Exposure
from repro.overlay.cdag import CDagOverlay
from repro.protocols.base import ProtocolError, RecordingSink
from repro.sim.transport import RecordingTransport

A, B, C = "A", "B", "C"


@pytest.fixture
def overlay():
    return CDagOverlay([A, B, C])


def make_group(group_id, overlay):
    transport = RecordingTransport(group_id)
    sink = RecordingSink()
    group = FlexCastGroup(group_id, overlay, transport, sink)
    return group, transport, sink


def msg(mid, dst, **kwargs):
    return Message(msg_id=mid, dst=frozenset(dst), **kwargs)


def delta(vertices, edges=(), last=None):
    return HistoryDelta(
        vertices=tuple((mid, frozenset(dst)) for mid, dst in vertices),
        edges=tuple(edges),
        last_delivered=last,
    )


class TestLcaBehaviour:
    def test_lca_delivers_client_message_immediately(self, overlay):
        group, transport, sink = make_group(A, overlay)
        m = msg("m1", {A, C})
        group.on_client_request(m)
        assert sink.sequence(A) == ["m1"]

    def test_lca_forwards_to_all_other_destinations_only(self, overlay):
        group, transport, sink = make_group(A, overlay)
        m = msg("m1", {A, B, C})
        group.on_client_request(m)
        destinations = [dst for dst, env in transport.sent if isinstance(env, FlexCastMsg)]
        assert sorted(destinations) == [B, C]

    def test_lca_does_not_forward_local_messages(self, overlay):
        group, transport, sink = make_group(A, overlay)
        group.on_client_request(msg("m1", {A}))
        assert transport.sent == []
        assert sink.sequence(A) == ["m1"]

    def test_client_request_to_non_lca_rejected(self, overlay):
        group, _, _ = make_group(B, overlay)
        with pytest.raises(ProtocolError):
            group.on_client_request(msg("m1", {A, B}))

    def test_client_request_to_non_destination_rejected(self, overlay):
        group, _, _ = make_group(B, overlay)
        with pytest.raises(ProtocolError):
            group.on_client_request(msg("m1", {A, C}))

    def test_undeclared_global_shape_rejected(self, overlay):
        """An out-of-universe shape is outside the conflict analysis: it
        must not run guard-ordered next to a single-shared partner."""
        exposure = Exposure.declared([{A, B}, {B, C}])
        group = FlexCastGroup(
            A, overlay, RecordingTransport(A), RecordingSink(), exposure=exposure
        )
        with pytest.raises(ProtocolError) as excinfo:
            group.on_client_request(msg("m1", {A, C}))
        # The error names the offending shape and the declared universe.
        assert "['A', 'C']" in str(excinfo.value)
        assert "[['A', 'B'], ['B', 'C']]" in str(excinfo.value)
        assert group.delivered_count == 0
        # Declared shapes and local messages pass.
        group.on_client_request(msg("m2", {A, B}))
        group.on_client_request(msg("m3", {A}))
        assert group.has_delivered("m3")

    @pytest.mark.parametrize("exposure", [Exposure.none(), Exposure.all()])
    def test_without_a_declared_universe_every_shape_is_admitted(
        self, overlay, exposure
    ):
        group = FlexCastGroup(
            A, overlay, RecordingTransport(A), RecordingSink(), exposure=exposure
        )
        group.on_client_request(msg("m1", {A, C}))
        group.on_client_request(msg("m2", {A, B, C}))
        assert group.pending.keys() == {"m1", "m2"}

    def test_exposure_has_one_degree_of_freedom_per_mode(self):
        """``hot_groups`` is derived, and all + a universe is contradictory."""
        raw = Exposure(universe=[{A}, {A, B}, {B, C}])
        assert raw == Exposure.declared([{A, B}, {B, C}])
        assert raw.hot_groups == {A, B, C}
        with pytest.raises(TypeError):
            Exposure(hot_groups=frozenset({A}))
        with pytest.raises(ValueError):
            Exposure(universe=[{A, B}], everything=True)

    def test_forwarded_msg_carries_history_diff(self, overlay):
        group, transport, _ = make_group(A, overlay)
        group.on_client_request(msg("m1", {A, B}))
        group.on_client_request(msg("m2", {A, B}))
        envelopes = [env for dst, env in transport.sent if isinstance(env, FlexCastMsg)]
        # The second forward must only ship the new vertex m2 (plus the edge),
        # not resend m1's vertex.
        second = envelopes[1]
        assert {v[0] for v in second.history.vertices} == {"m2"}
        assert ("m1", "m2") in second.history.edges


class TestNonLcaDelivery:
    def test_single_ancestor_message_delivers_immediately(self, overlay):
        group, transport, sink = make_group(C, overlay)
        group.on_envelope(A, FlexCastMsg(message=msg("m1", {A, C}), history=EMPTY_DELTA))
        assert sink.sequence(C) == ["m1"]

    def test_non_destination_msg_rejected(self, overlay):
        group, _, _ = make_group(B, overlay)
        with pytest.raises(ProtocolError):
            group.on_envelope(A, FlexCastMsg(message=msg("m1", {A, C}), history=EMPTY_DELTA))

    def test_middle_destination_sends_ack_to_higher_destinations(self, overlay):
        group, transport, sink = make_group(B, overlay)
        group.on_envelope(A, FlexCastMsg(message=msg("m1", {A, B, C}), history=EMPTY_DELTA))
        assert sink.sequence(B) == ["m1"]
        acks = [(dst, env) for dst, env in transport.sent if isinstance(env, FlexCastAck)]
        assert [dst for dst, _ in acks] == [C]
        assert acks[0][1].from_group == B

    def test_highest_destination_waits_for_middle_ack(self, overlay):
        group, transport, sink = make_group(C, overlay)
        m = msg("m1", {A, B, C})
        group.on_envelope(A, FlexCastMsg(message=m, history=EMPTY_DELTA))
        assert sink.sequence(C) == []  # blocked on B's ack
        group.on_envelope(B, FlexCastAck(message=m, history=EMPTY_DELTA, from_group=B))
        assert sink.sequence(C) == ["m1"]

    def test_ack_arriving_before_msg_is_buffered(self, overlay):
        group, transport, sink = make_group(C, overlay)
        m = msg("m1", {A, B, C})
        group.on_envelope(B, FlexCastAck(message=m, history=EMPTY_DELTA, from_group=B))
        assert sink.sequence(C) == []
        group.on_envelope(A, FlexCastMsg(message=m, history=EMPTY_DELTA))
        assert sink.sequence(C) == ["m1"]

    def test_duplicate_acks_are_idempotent(self, overlay):
        group, transport, sink = make_group(C, overlay)
        m = msg("m1", {A, B, C})
        group.on_envelope(A, FlexCastMsg(message=m, history=EMPTY_DELTA))
        ack = FlexCastAck(message=m, history=EMPTY_DELTA, from_group=B)
        group.on_envelope(B, ack)
        group.on_envelope(B, ack)
        assert sink.sequence(C) == ["m1"]
        assert group.delivered_count == 1

    def test_messages_from_same_lca_delivered_in_fifo_order(self, overlay):
        group, transport, sink = make_group(C, overlay)
        m1, m2 = msg("m1", {A, C}), msg("m2", {A, C})
        d1 = delta([("m1", {A, C})])
        d2 = delta([("m2", {A, C})], edges=[("m1", "m2")])
        group.on_envelope(A, FlexCastMsg(message=m1, history=d1))
        group.on_envelope(A, FlexCastMsg(message=m2, history=d2))
        assert sink.sequence(C) == ["m1", "m2"]


class TestNotifLogic:
    def test_lca_notifies_bypassed_group_it_already_contacted(self, overlay):
        """Strategy (c): A already talked to B, so forwarding m3 to C must
        trigger a notif to B (which is not in m3.dst)."""
        group, transport, sink = make_group(A, overlay)
        group.on_client_request(msg("m2", {A, B}))  # A has now contacted B
        transport.clear()
        group.on_client_request(msg("m3", {A, C}))
        notifs = [(dst, env) for dst, env in transport.sent if isinstance(env, FlexCastNotif)]
        assert [dst for dst, _ in notifs] == [B]
        # The forwarded msg carries B in its notified list so C waits for B's ack.
        msgs = [env for dst, env in transport.sent if isinstance(env, FlexCastMsg) and dst == C]
        assert msgs and B in msgs[0].notified

    def test_no_notif_without_prior_communication(self, overlay):
        """Minimality: A never talked to B, so no notif may be sent to B."""
        group, transport, sink = make_group(A, overlay)
        group.on_client_request(msg("m1", {A, C}))
        notifs = [env for _, env in transport.sent if isinstance(env, FlexCastNotif)]
        assert notifs == []

    def test_notified_group_acks_destinations_above_it(self, overlay):
        group, transport, sink = make_group(B, overlay)
        # B has delivered something already (so it has dependencies to share).
        group.on_envelope(A, FlexCastMsg(message=msg("m1", {A, B}), history=EMPTY_DELTA))
        transport.clear()
        m3 = msg("m3", {A, C})
        group.on_envelope(
            A, FlexCastNotif(message=m3, history=delta([("m3", {A, C})]), from_group=A)
        )
        acks = [(dst, env) for dst, env in transport.sent if isinstance(env, FlexCastAck)]
        assert [dst for dst, _ in acks] == [C]
        assert {v[0] for v in acks[0][1].history.vertices} >= {"m1"}

    def test_notif_with_open_dependency_waits_for_local_delivery(self, overlay):
        group, transport, sink = make_group(B, overlay)
        # B learns (from the notif's history) about a message addressed to B
        # that it has not delivered yet: the ack must be deferred.
        m1 = msg("m1", {A, B})
        m3 = msg("m3", {A, C})
        notif_history = delta([("m1", {A, B}), ("m3", {A, C})], edges=[("m1", "m3")])
        group.on_envelope(A, FlexCastNotif(message=m3, history=notif_history, from_group=A))
        assert not [env for _, env in transport.sent if isinstance(env, FlexCastAck)]
        assert len(group.pending_notifications) == 1
        # Delivering m1 unblocks the pending notification.
        group.on_envelope(A, FlexCastMsg(message=m1, history=EMPTY_DELTA))
        acks = [(dst, env) for dst, env in transport.sent if isinstance(env, FlexCastAck)]
        assert [dst for dst, _ in acks] == [C]
        assert group.pending_notifications == []

    def test_highest_destination_waits_for_notified_group_ack(self, overlay):
        group, transport, sink = make_group(C, overlay)
        m3 = msg("m3", {A, C})
        group.on_envelope(
            A,
            FlexCastMsg(message=m3, history=EMPTY_DELTA, notified=frozenset({B})),
        )
        assert sink.sequence(C) == []  # must wait for B (notified) to ack
        group.on_envelope(B, FlexCastAck(message=m3, history=EMPTY_DELTA, from_group=B))
        assert sink.sequence(C) == ["m3"]


class TestIncrementalDeliveryState:
    """The incrementally maintained open-dependency set and dirty queues."""

    def test_open_dependencies_tracks_merged_undelivered_messages(self, overlay):
        group, transport, sink = make_group(C, overlay)
        m3 = msg("m3", {A, C})
        # A's history says m1 (lca B, addressed to C) was ordered before m3.
        notif_history = delta([("m1", {B, C}), ("m3", {A, C})], edges=[("m1", "m3")])
        group.on_envelope(
            A, FlexCastMsg(message=m3, history=notif_history)
        )
        # m3 is blocked: its history says m1 (addressed to C) precedes it.
        assert sink.sequence(C) == []
        assert group.open_dependencies() == {"m1", "m3"}
        group.on_envelope(B, FlexCastMsg(message=msg("m1", {B, C}), history=EMPTY_DELTA))
        assert sink.sequence(C) == ["m1", "m3"]
        assert group.open_dependencies() == set()

    def test_open_dependencies_ignores_other_groups_messages(self, overlay):
        group, transport, sink = make_group(B, overlay)
        group.on_envelope(
            A,
            FlexCastNotif(
                message=msg("m3", {A, C}),
                history=delta([("m3", {A, C}), ("mC", {C})]),
                from_group=A,
            ),
        )
        assert group.open_dependencies() == set()

    def test_delivery_clears_queue_dirty_state(self, overlay):
        group, transport, sink = make_group(C, overlay)
        group.on_envelope(A, FlexCastMsg(message=msg("m1", {A, C}), history=EMPTY_DELTA))
        assert sink.sequence(C) == ["m1"]
        # Nothing left to examine: the dirty set must drain with the queues.
        assert group._dirty_queues == set()
        assert all(len(q) == 0 for q in group.queues.values())

    def test_blocked_head_stays_queued_until_ack(self, overlay):
        group, transport, sink = make_group(C, overlay)
        m = msg("m1", {A, B, C})
        group.on_envelope(A, FlexCastMsg(message=m, history=EMPTY_DELTA))
        assert group.queue_sizes()[A] == 1
        # Unrelated acks must not deliver the blocked head.
        other = msg("m9", {A, B, C})
        group.on_envelope(B, FlexCastAck(message=other, history=EMPTY_DELTA, from_group=B))
        assert sink.sequence(C) == []
        group.on_envelope(B, FlexCastAck(message=m, history=EMPTY_DELTA, from_group=B))
        assert sink.sequence(C) == ["m1"]
        assert group.queue_sizes()[A] == 0

    def test_gc_keeps_open_dependency_set_consistent(self, overlay):
        group, transport, sink = make_group(C, overlay)
        # C learns (via an ancestor's history) about m1 before receiving it.
        flush = msg("f1", {A, C}, is_flush=True)
        group.on_envelope(
            A,
            FlexCastMsg(
                message=flush,
                history=delta([("m1", {B, C}), ("f1", {A, C})], edges=[("m1", "f1")]),
            ),
        )
        assert sink.sequence(C) == []  # flush blocked behind m1
        assert group.open_dependencies() == {"m1", "f1"}
        group.on_envelope(B, FlexCastMsg(message=msg("m1", {B, C}), history=EMPTY_DELTA))
        assert sink.sequence(C) == ["m1", "f1"]
        # The flush garbage-collected m1; every index must agree.
        assert group.stats["gc_pruned"] > 0
        assert group.open_dependencies() == set()
        assert "m1" not in group.history


class TestStats:
    def test_stats_track_messages(self, overlay):
        group, transport, sink = make_group(B, overlay)
        group.on_envelope(A, FlexCastMsg(message=msg("m1", {A, B, C}), history=EMPTY_DELTA))
        assert group.stats["msgs_received"] == 1
        assert group.stats["acks_sent"] == 1
        # Every ancestor queue plus the group's own client queue.
        assert group.queue_sizes() == {A: 0, B: 0}
        assert group.history_size() == 1


class TestFlexCastProtocol:
    def test_requires_cdag_overlay(self):
        from repro.overlay.tree import TreeOverlay

        with pytest.raises(TypeError):
            FlexCastProtocol(TreeOverlay(A, {A: [B, C]}))

    def test_entry_group_is_lca(self, overlay):
        protocol = FlexCastProtocol(overlay)
        assert protocol.entry_groups(msg("m1", {B, C})) == [B]
        assert protocol.genuine
        assert protocol.name == "FlexCast"

    def test_create_group_builds_flexcast_group(self, overlay):
        protocol = FlexCastProtocol(overlay)
        group = protocol.create_group(A, RecordingTransport(A), RecordingSink())
        assert isinstance(group, FlexCastGroup)


# --------------------------------------------------------- duplicate arrivals
#: Every way an id can reach a group again ...
ARRIVALS = ("msg", "ack", "notif", "ts-propose", "retry")
#: ... and every way the group can already be past it.  ``in-flight`` is a
#: batch *member* retried while its carrier is still queued: it has no
#: pending entry or history vertex of its own, only the member index sees it.
STATES = ("delivered", "forgotten", "in-flight")

#: What an arrival legitimately moves, by (arrival, state); everything else
#: in :func:`_observable` must come out as it went in.  An envelope about a
#: member id means some group ordered that member as a unit of its own (a
#: non-compliant client submitted it both ways), so the authority proposes
#: for it like for any first contact, and an ack — which may precede its
#: msg — is kept.
MAY_CHANGE = {
    ("msg", "in-flight"): {"ts"},
    ("ts-propose", "in-flight"): {"ts"},
    ("ack", "in-flight"): {"ts", "pending"},
}


def _observable(group, sink, obs):
    gauges = obs.registry.snapshot()["gauges"]
    label = f'{{group="{group.group_id}"}}'
    ts = group.ts
    return {
        "pending": {
            mid: (set(e.acks), set(e.notified), e.enqueued)
            for mid, e in group.pending.items()
        },
        "members": dict(group._batch_members),
        "queues": group.queue_sizes(),
        # The clock is left out: the Lamport receive rule moves it.
        "ts": ts
        and (
            sorted(ts.pending),
            {mid: dict(known) for mid, known in ts._early.items()},
            set(ts._completed),
        ),
        "leaked": gauges["flexcast_leaked_pending_entries" + label],
        "orphans": gauges["flexcast_member_index_orphans" + label],
        "delivered": sink.sequence(group.group_id),
    }


class TestDuplicateArrivalMatrix:
    """An arrival about an id the group is already past leaves no trace:
    no pending entry, no member-index row, no timestamp state, both leak
    gauges at zero — whether the id was delivered, delivered and then pruned
    by the flush GC (the history's forgotten set is then the only record of
    it), or rides in a batch that is still in flight.

    ``retry`` runs at the lca ``A`` (clients submit there), the envelopes at
    the highest destination ``C``; the subject is addressed to all three
    groups, so ``C`` waits for ``B``'s ack and, when exposed, for everyone's
    proposal.
    """

    DST = {A, B, C}

    def _exposed_everywhere(self, group, message):
        for peer in self.DST - {group.group_id}:
            group.on_envelope(
                peer,
                FlexCastTsPropose(
                    message=msg(message.msg_id, message.dst),
                    timestamp=1,
                    from_group=peer,
                ),
            )

    def _build(self, site, state, exposure, overlay):
        from repro.obs import Observability

        sink, obs = RecordingSink(), Observability()
        group = FlexCastGroup(
            site, overlay, RecordingTransport(site), sink, exposure=exposure
        )
        group.attach_obs(obs)
        subject = msg("m1", self.DST)
        unit = subject
        if state == "in-flight":
            unit = Message.batch_of([subject, msg("m2", self.DST)], batch_id="b0")
        if site == A:
            group.on_envelope("client", ClientRequest(message=unit))
        else:
            group.on_envelope(A, FlexCastMsg(message=unit, history=EMPTY_DELTA))
        if state == "in-flight":
            assert sink.sequence(site) == []
            return group, sink, obs, subject
        if site == C:
            group.on_envelope(
                B, FlexCastAck(message=unit, history=EMPTY_DELTA, from_group=B)
            )
        if exposure:
            self._exposed_everywhere(group, unit)
        assert sink.sequence(site) == ["m1"]
        if state == "forgotten":
            flush = msg("f1", {A, C}, is_flush=True)
            if site == A:
                group.on_envelope("client", ClientRequest(message=flush))
            else:
                group.on_envelope(
                    A,
                    FlexCastMsg(
                        message=flush,
                        history=delta(
                            [("m1", self.DST), ("f1", {A, C})], edges=[("m1", "f1")]
                        ),
                    ),
                )
            if exposure:
                self._exposed_everywhere(group, flush)
            assert sink.sequence(site) == ["m1", "f1"]
            assert group.history.is_forgotten("m1") and "m1" not in group.pending
        return group, sink, obs, subject

    @pytest.mark.parametrize(
        "exposure", [Exposure.none(), Exposure.all()], ids=["unexposed", "exposed"]
    )
    @pytest.mark.parametrize("state", STATES)
    @pytest.mark.parametrize("arrival", ARRIVALS)
    def test_arrival_leaves_no_trace(self, arrival, state, exposure, overlay):
        if arrival == "ts-propose" and not exposure:
            pytest.skip("a group that exposes nothing rejects proposals")
        site = A if arrival == "retry" else C
        if state == "in-flight" and site == A and not exposure:
            pytest.skip("an unexposed lca delivers the batch on submission")
        group, sink, obs, subject = self._build(site, state, exposure, overlay)
        before = _observable(group, sink, obs)
        proposals = ((B, 1),) if exposure else ()
        envelope = {
            "msg": FlexCastMsg(
                message=subject, history=EMPTY_DELTA, ts_proposals=proposals
            ),
            "ack": FlexCastAck(
                message=subject,
                history=EMPTY_DELTA,
                from_group=B,
                ts_proposals=proposals,
            ),
            "notif": FlexCastNotif(
                message=subject, history=EMPTY_DELTA, from_group=A
            ),
            "ts-propose": FlexCastTsPropose(
                message=msg("m1", self.DST), timestamp=7, from_group=B
            ),
            "retry": ClientRequest(message=subject),
        }[arrival]
        group.on_envelope("client" if arrival == "retry" else B, envelope)
        after = _observable(group, sink, obs)
        assert after["leaked"] == after["orphans"] == 0
        for key in MAY_CHANGE.get((arrival, state), ()):
            before.pop(key), after.pop(key)
        assert after == before
