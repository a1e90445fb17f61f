"""White-box unit tests for the FlexCast group logic.

Groups are driven directly with hand-crafted envelopes through a
RecordingTransport, which gives the tests full control over arrival order —
including the adversarial orderings of Figure 3 in the paper.
"""

from dataclasses import replace

import pytest

from repro.core.flexcast import FlexCastGroup, FlexCastProtocol
from repro.core.message import (
    ClientRequest,
    EMPTY_DELTA,
    FlexCastAck,
    FlexCastMsg,
    FlexCastNotif,
    HistoryDelta,
    Message,
)
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


def delta(vertices, edges=()):
    return HistoryDelta(
        vertices=tuple((mid, frozenset(dst)) for mid, dst in vertices),
        edges=tuple(edges),
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

    def test_every_shape_is_admitted(self, overlay):
        group, _, _ = make_group(A, overlay)
        group.on_client_request(msg("m1", {A, C}))
        group.on_client_request(msg("m2", {A, B, C}))
        assert group.pending.keys() == {"m1", "m2"}

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
    def test_single_ancestor_message_delivers_immediately(self, overlay, seq):
        group, transport, sink = make_group(C, overlay)
        group.on_envelope(
            A,
            FlexCastMsg(message=msg("m1", {A, C}), history=EMPTY_DELTA, seq=seq(A, C)),
        )
        assert sink.sequence(C) == ["m1"]

    def test_non_destination_msg_rejected(self, overlay, seq):
        group, _, _ = make_group(B, overlay)
        with pytest.raises(ProtocolError):
            group.on_envelope(
                A,
                FlexCastMsg(
                    message=msg("m1", {A, C}), history=EMPTY_DELTA, seq=seq(A, B),
                ),
            )

    def test_middle_destination_sends_ack_to_higher_destinations(self, overlay, seq):
        group, transport, sink = make_group(B, overlay)
        group.on_envelope(
            A,
            FlexCastMsg(
                message=msg("m1", {A, B, C}), history=EMPTY_DELTA, seq=seq(A, B),
            ),
        )
        assert sink.sequence(B) == ["m1"]
        acks = [(dst, env) for dst, env in transport.sent if isinstance(env, FlexCastAck)]
        assert [dst for dst, _ in acks] == [C]
        assert acks[0][1].from_group == B

    def test_highest_destination_waits_for_middle_ack(self, overlay, seq):
        group, transport, sink = make_group(C, overlay)
        m = msg("m1", {A, B, C})
        group.on_envelope(A, FlexCastMsg(message=m, history=EMPTY_DELTA, seq=seq(A, C)))
        assert sink.sequence(C) == []  # blocked on B's ack
        group.on_envelope(
            B, FlexCastAck(message=m, history=EMPTY_DELTA, from_group=B, seq=seq(B, C))
        )
        assert sink.sequence(C) == ["m1"]

    def test_ack_arriving_before_msg_is_buffered(self, overlay, seq):
        group, transport, sink = make_group(C, overlay)
        m = msg("m1", {A, B, C})
        group.on_envelope(
            B, FlexCastAck(message=m, history=EMPTY_DELTA, from_group=B, seq=seq(B, C))
        )
        assert sink.sequence(C) == []
        group.on_envelope(A, FlexCastMsg(message=m, history=EMPTY_DELTA, seq=seq(A, C)))
        assert sink.sequence(C) == ["m1"]

    def test_duplicate_acks_are_idempotent(self, overlay, seq):
        group, transport, sink = make_group(C, overlay)
        m = msg("m1", {A, B, C})
        group.on_envelope(A, FlexCastMsg(message=m, history=EMPTY_DELTA, seq=seq(A, C)))
        ack = FlexCastAck(message=m, history=EMPTY_DELTA, from_group=B, seq=seq(B, C))
        group.on_envelope(B, ack)
        group.on_envelope(B, ack)
        assert sink.sequence(C) == ["m1"]
        assert group.delivered_count == 1

    def test_messages_from_same_lca_delivered_in_fifo_order(self, overlay, seq):
        group, transport, sink = make_group(C, overlay)
        m1, m2 = msg("m1", {A, C}), msg("m2", {A, C})
        d1 = delta([("m1", {A, C})])
        d2 = delta([("m2", {A, C})], edges=[("m1", "m2")])
        group.on_envelope(A, FlexCastMsg(message=m1, history=d1, seq=seq(A, C)))
        group.on_envelope(A, FlexCastMsg(message=m2, history=d2, seq=seq(A, C)))
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
        # The forwarded msg carries the pair (B, A) in its notified list, so
        # C waits for B's ack to A's notif.
        msgs = [env for dst, env in transport.sent if isinstance(env, FlexCastMsg) and dst == C]
        assert msgs and msgs[0].notified == {(B, A)}

    def test_no_notif_without_prior_communication(self, overlay):
        """Minimality: A never talked to B, so no notif may be sent to B."""
        group, transport, sink = make_group(A, overlay)
        group.on_client_request(msg("m1", {A, C}))
        notifs = [env for _, env in transport.sent if isinstance(env, FlexCastNotif)]
        assert notifs == []

    def test_notified_group_acks_destinations_above_it(self, overlay, seq):
        group, transport, sink = make_group(B, overlay)
        # B has delivered something already (so it has dependencies to share).
        group.on_envelope(
            A,
            FlexCastMsg(message=msg("m1", {A, B}), history=EMPTY_DELTA, seq=seq(A, B)),
        )
        transport.clear()
        m3 = msg("m3", {A, C})
        group.on_envelope(
            A,
            FlexCastNotif(
                message=m3, history=delta([("m3", {A, C})]), from_group=A,
                seq=seq(A, B),
            ),
        )
        acks = [(dst, env) for dst, env in transport.sent if isinstance(env, FlexCastAck)]
        assert [dst for dst, _ in acks] == [C]
        assert {v[0] for v in acks[0][1].history.vertices} >= {"m1"}
        assert acks[0][1].notifier == A

    def test_notif_with_open_dependency_waits_for_local_delivery(self, overlay, seq):
        group, transport, sink = make_group(B, overlay)
        # B learns (from the notif's history) about a message addressed to B
        # that it has not delivered yet: the ack must be deferred.
        m1 = msg("m1", {A, B})
        m3 = msg("m3", {A, C})
        notif_history = delta([("m1", {A, B}), ("m3", {A, C})], edges=[("m1", "m3")])
        group.on_envelope(
            A,
            FlexCastNotif(
                message=m3, history=notif_history, from_group=A, seq=seq(A, B),
            ),
        )
        assert not [env for _, env in transport.sent if isinstance(env, FlexCastAck)]
        assert len(group.pending_notifications) == 1
        # Delivering m1 unblocks the pending notification.
        group.on_envelope(
            A, FlexCastMsg(message=m1, history=EMPTY_DELTA, seq=seq(A, B))
        )
        acks = [(dst, env) for dst, env in transport.sent if isinstance(env, FlexCastAck)]
        assert [dst for dst, _ in acks] == [C]
        assert group.pending_notifications == []

    def test_highest_destination_waits_for_notified_group_ack(self, overlay, seq):
        group, transport, sink = make_group(C, overlay)
        m3 = msg("m3", {A, C})
        group.on_envelope(
            A,
            FlexCastMsg(
                message=m3, history=EMPTY_DELTA, notified=frozenset({(B, A)}),
                seq=seq(A, C),
            ),
        )
        assert sink.sequence(C) == []  # must wait for B (notified) to ack
        group.on_envelope(
            B,
            FlexCastAck(
                message=m3, history=EMPTY_DELTA, from_group=B, notifier=A,
                seq=seq(B, C),
            ),
        )
        assert sink.sequence(C) == ["m3"]

    def test_notifs_go_only_to_groups_ranked_below_a_destination(self):
        """A group ranked above every other destination cannot be an
        ancestor of one, so it holds nothing they must wait for: A has talked
        to B, D and E, and forwarding ``m`` to C notifies B alone."""
        group, transport, sink = make_group("A", CDagOverlay(["A", "B", "C", "D", "E"]))
        for contacted in ("B", "D", "E"):
            group.on_client_request(msg(f"to-{contacted}", {"A", contacted}))
        transport.clear()
        group.on_client_request(msg("m", {"A", "C"}))
        notifs = [dst for dst, env in transport.sent if isinstance(env, FlexCastNotif)]
        assert notifs == ["B"]


class TestOneAckPerNotifier:
    """A group notified about one message by two notifiers owes each an ack
    (DESIGN.md "Ordering: one ack per notifier").  Five groups: ``m`` is
    addressed to A, C and E; both A and C have talked to D before, so each
    notifies D on its way to E."""

    ORDER = ("A", "B", "C", "D", "E")

    @pytest.fixture
    def five(self):
        return CDagOverlay(list(self.ORDER))

    m = msg("m", {"A", "C", "E"})

    def test_second_notifier_notifies_a_group_already_notified(self, five, seq):
        group, transport, sink = make_group("C", five)
        group.on_client_request(msg("m0", {"C", "D"}))  # C has now contacted D
        transport.clear()
        group.on_envelope(
            "A",
            FlexCastMsg(
                message=self.m, history=EMPTY_DELTA,
                notified=frozenset({("D", "A")}),
                seq=seq("A", "C"),
            ),
        )
        assert sink.sequence("C") == ["m0", "m"]
        notifs = [(dst, env) for dst, env in transport.sent if isinstance(env, FlexCastNotif)]
        assert [(dst, env.from_group) for dst, env in notifs] == [("D", "C")]
        (ack,) = [env for dst, env in transport.sent if isinstance(env, FlexCastAck)]
        assert (ack.from_group, ack.notifier) == ("C", None)
        assert ack.notified == {("D", "A"), ("D", "C")}

    def test_notified_group_acks_each_notifier(self, five, seq):
        group, transport, sink = make_group("D", five)
        for notifier in ("A", "C"):
            group.on_envelope(
                notifier,
                FlexCastNotif(
                    message=self.m, history=EMPTY_DELTA, from_group=notifier,
                    seq=seq(notifier, "D"),
                ),
            )
        acks = [(dst, env) for dst, env in transport.sent if isinstance(env, FlexCastAck)]
        assert [(dst, env.from_group, env.notifier) for dst, env in acks] == [
            ("E", "D", "A"), ("E", "D", "C"),
        ]

    def test_destination_waits_for_the_ack_of_every_notifier(self, five, seq):
        group, transport, sink = make_group("E", five)
        pairs = frozenset({("D", "A"), ("D", "C")})
        group.on_envelope(
            "A",
            FlexCastMsg(
                message=self.m, history=EMPTY_DELTA, notified=frozenset({("D", "A")}),
                seq=seq("A", "E"),
            ),
        )
        group.on_envelope(
            "C",
            FlexCastAck(
                message=self.m, history=EMPTY_DELTA, from_group="C", notified=pairs,
                seq=seq("C", "E"),
            ),
        )
        group.on_envelope(
            "D",
            FlexCastAck(
                message=self.m, history=EMPTY_DELTA, from_group="D", notifier="A",
                seq=seq("D", "E"),
            ),
        )
        assert sink.sequence("E") == []  # D's answer to C is still owed
        assert group.queue_sizes()["A"] == 1
        group.on_envelope(
            "D",
            FlexCastAck(
                message=self.m, history=EMPTY_DELTA, from_group="D", notifier="C",
                seq=seq("D", "E"),
            ),
        )
        assert sink.sequence("E") == ["m"]

    def test_a_notifier_notifies_a_group_once(self, five):
        group, transport, sink = make_group("C", five)
        group.on_client_request(msg("m0", {"C", "D"}))
        transport.clear()
        assert group.send_notifs(self.m) == {("D", "C")}
        assert group.send_notifs(self.m) == {("D", "C")}
        notifs = [dst for dst, env in transport.sent if isinstance(env, FlexCastNotif)]
        assert notifs == ["D"]

    def test_deferred_notifs_each_answer_their_own_notifier(self, five, seq):
        """D owes a delivery first; both notifs wait for it, and each is then
        answered with an ack that names its own notifier."""
        group, transport, sink = make_group("D", five)
        x = msg("x", {"A", "D"})
        history = delta([("x", {"A", "D"}), ("m", {"A", "C", "E"})], edges=[("x", "m")])
        group.on_envelope(
            "A",
            FlexCastNotif(
                message=self.m, history=history, from_group="A", seq=seq("A", "D"),
            ),
        )
        group.on_envelope(
            "C",
            FlexCastNotif(
                message=self.m, history=EMPTY_DELTA, from_group="C",
                seq=seq("C", "D"),
            ),
        )
        assert len(group.pending_notifications) == 2
        assert not [env for _, env in transport.sent if isinstance(env, FlexCastAck)]
        group.on_envelope(
            "A", FlexCastMsg(message=x, history=EMPTY_DELTA, seq=seq("A", "D"))
        )
        acks = [(dst, env) for dst, env in transport.sent if isinstance(env, FlexCastAck)]
        assert [(dst, env.from_group, env.notifier) for dst, env in acks] == [
            ("E", "D", "A"), ("E", "D", "C"),
        ]
        assert group.pending_notifications == []

    def test_a_repeated_ack_does_not_answer_another_notifier(self, five, seq):
        group, transport, sink = make_group("E", five)
        pairs = frozenset({("D", "A"), ("D", "C")})
        group.on_envelope(
            "A",
            FlexCastMsg(
                message=self.m, history=EMPTY_DELTA, notified=pairs, seq=seq("A", "E"),
            ),
        )
        group.on_envelope(
            "C",
            FlexCastAck(
                message=self.m, history=EMPTY_DELTA, from_group="C", seq=seq("C", "E"),
            ),
        )
        answer_to_a = FlexCastAck(
            message=self.m, history=EMPTY_DELTA, from_group="D", notifier="A",
            seq=seq("D", "E"),
        )
        group.on_envelope("D", answer_to_a)
        # Repeated as a new envelope, so the channel does not absorb it.
        group.on_envelope("D", replace(answer_to_a, seq=seq("D", "E")))
        assert sink.sequence("E") == []

    def test_an_ack_naming_no_notifier_does_not_answer_a_notif(self, five, seq):
        """``notifier=None`` is a destination's own ack; it answers no
        notif, even from the notified group."""
        group, transport, sink = make_group("E", five)
        group.on_envelope(
            "A",
            FlexCastMsg(
                message=self.m, history=EMPTY_DELTA, notified=frozenset({("D", "A")}),
                seq=seq("A", "E"),
            ),
        )
        group.on_envelope(
            "C",
            FlexCastAck(
                message=self.m, history=EMPTY_DELTA, from_group="C", seq=seq("C", "E"),
            ),
        )
        group.on_envelope(
            "D",
            FlexCastAck(
                message=self.m, history=EMPTY_DELTA, from_group="D", seq=seq("D", "E"),
            ),
        )
        assert sink.sequence("E") == []
        group.on_envelope(
            "D",
            FlexCastAck(
                message=self.m, history=EMPTY_DELTA, from_group="D", notifier="A",
                seq=seq("D", "E"),
            ),
        )
        assert sink.sequence("E") == ["m"]

    def test_old_form_pairs_are_answered_by_an_old_form_ack(self, five, seq):
        """A frame written before the pairs decodes a bare notified group as
        ``(group, None)`` and an ack without a notifier as ``notifier=None``
        (``runtime/codec.py``), so a replayed pair still finds its ack."""
        group, transport, sink = make_group("E", five)
        group.on_envelope(
            "A",
            FlexCastMsg(
                message=self.m, history=EMPTY_DELTA, notified=frozenset({("D", None)}),
                seq=seq("A", "E"),
            ),
        )
        group.on_envelope(
            "C",
            FlexCastAck(
                message=self.m, history=EMPTY_DELTA, from_group="C", seq=seq("C", "E"),
            ),
        )
        assert sink.sequence("E") == []
        group.on_envelope(
            "D",
            FlexCastAck(
                message=self.m, history=EMPTY_DELTA, from_group="D", seq=seq("D", "E"),
            ),
        )
        assert sink.sequence("E") == ["m"]


class TestIncrementalDeliveryState:
    """The incrementally maintained open-dependency set and dirty queues."""

    def test_open_dependencies_tracks_merged_undelivered_messages(self, overlay, seq):
        group, transport, sink = make_group(C, overlay)
        m3 = msg("m3", {A, C})
        # A's history says m1 (lca B, addressed to C) was ordered before m3.
        notif_history = delta([("m1", {B, C}), ("m3", {A, C})], edges=[("m1", "m3")])
        group.on_envelope(
            A, FlexCastMsg(message=m3, history=notif_history, seq=seq(A, C))
        )
        # m3 is blocked: its history says m1 (addressed to C) precedes it.
        assert sink.sequence(C) == []
        assert group.open_dependencies() == {"m1", "m3"}
        group.on_envelope(
            B,
            FlexCastMsg(message=msg("m1", {B, C}), history=EMPTY_DELTA, seq=seq(B, C)),
        )
        assert sink.sequence(C) == ["m1", "m3"]
        assert group.open_dependencies() == set()

    def test_open_dependencies_ignores_other_groups_messages(self, overlay, seq):
        group, transport, sink = make_group(B, overlay)
        group.on_envelope(
            A,
            FlexCastNotif(
                message=msg("m3", {A, C}),
                history=delta([("m3", {A, C}), ("mC", {C})]),
                from_group=A,
                seq=seq(A, B),
            ),
        )
        assert group.open_dependencies() == set()

    def test_delivery_clears_queue_dirty_state(self, overlay, seq):
        group, transport, sink = make_group(C, overlay)
        group.on_envelope(
            A,
            FlexCastMsg(message=msg("m1", {A, C}), history=EMPTY_DELTA, seq=seq(A, C)),
        )
        assert sink.sequence(C) == ["m1"]
        # Nothing left to examine: the dirty set must drain with the queues.
        assert group._dirty_queues == set()
        assert all(len(q) == 0 for q in group.queues.values())

    def test_blocked_head_stays_queued_until_ack(self, overlay, seq):
        group, transport, sink = make_group(C, overlay)
        m = msg("m1", {A, B, C})
        group.on_envelope(A, FlexCastMsg(message=m, history=EMPTY_DELTA, seq=seq(A, C)))
        assert group.queue_sizes()[A] == 1
        # Unrelated acks must not deliver the blocked head.
        other = msg("m9", {A, B, C})
        group.on_envelope(
            B,
            FlexCastAck(
                message=other, history=EMPTY_DELTA, from_group=B, seq=seq(B, C),
            ),
        )
        assert sink.sequence(C) == []
        group.on_envelope(
            B, FlexCastAck(message=m, history=EMPTY_DELTA, from_group=B, seq=seq(B, C))
        )
        assert sink.sequence(C) == ["m1"]
        assert group.queue_sizes()[A] == 0

    def test_gc_keeps_open_dependency_set_consistent(self, overlay, seq):
        group, transport, sink = make_group(C, overlay)
        # C learns (via an ancestor's history) about m1 before receiving it.
        flush = msg("f1", {A, C}, is_flush=True)
        group.on_envelope(
            A,
            FlexCastMsg(
                message=flush,
                history=delta([("m1", {B, C}), ("f1", {A, C})], edges=[("m1", "f1")]),
                seq=seq(A, C),
            ),
        )
        assert sink.sequence(C) == []  # flush blocked behind m1
        assert group.open_dependencies() == {"m1", "f1"}
        group.on_envelope(
            B,
            FlexCastMsg(message=msg("m1", {B, C}), history=EMPTY_DELTA, seq=seq(B, C)),
        )
        assert sink.sequence(C) == ["m1", "f1"]
        # The flush garbage-collected m1; every index must agree.
        assert group.stats["gc_pruned"] > 0
        assert group.open_dependencies() == set()
        assert "m1" not in group.history

    def test_candidate_whose_blocker_sits_in_a_merged_cycle_stays_queued(
        self, overlay, seq
    ):
        """A merged delta that carries a delivery cycle is a bug upstream:
        the group honours both edges and stays blocked, where a stuck queue
        shows it, instead of delivering through the cycle."""
        group, transport, sink = make_group(C, overlay)
        cycle = delta(
            [("X", {A, C}), ("Y", {B, C})], edges=[("X", "Y"), ("Y", "X")]
        )
        group.on_envelope(
            A, FlexCastMsg(message=msg("X", {A, C}), history=cycle, seq=seq(A, C))
        )
        group.on_envelope(
            B, FlexCastMsg(message=msg("Y", {B, C}), history=EMPTY_DELTA, seq=seq(B, C))
        )
        assert sink.sequence(C) == []
        assert group.queue_sizes() == {A: 1, B: 1, C: 0}


class TestStats:
    def test_stats_track_messages(self, overlay, seq):
        group, transport, sink = make_group(B, overlay)
        group.on_envelope(
            A,
            FlexCastMsg(
                message=msg("m1", {A, B, C}), history=EMPTY_DELTA, seq=seq(A, B),
            ),
        )
        assert group.stats["msgs_received"] == 1
        assert group.stats["acks_sent"] == 1
        # Every ancestor queue plus the group's own client queue.
        assert group.queue_sizes() == {A: 0, B: 0}
        assert group.history_size() == 1


class TestNumberedChannels:
    """A group numbers its msg, ack and notif envelopes per receiving group,
    and takes from each sending group only the next number."""

    def test_numbers_count_per_receiving_group(self, overlay):
        group, transport, _ = make_group(A, overlay)
        group.on_client_request(msg("m1", {A, B}))
        group.on_client_request(msg("m2", {A, B, C}))
        group.on_client_request(msg("m3", {A, C}))  # notifies B first
        numbered = [
            (dst, type(env).__name__, env.seq) for dst, env in transport.sent
        ]
        assert numbered == [
            (B, "FlexCastMsg", 1),
            (B, "FlexCastMsg", 2),
            (C, "FlexCastMsg", 1),
            (B, "FlexCastNotif", 3),
            (C, "FlexCastMsg", 2),
        ]

    def test_a_repeated_number_is_absorbed_without_a_trace(self, overlay, seq):
        group, transport, sink = make_group(C, overlay)
        first = FlexCastMsg(
            message=msg("m1", {A, B, C}), history=delta([("m1", {A, B, C})]),
            seq=seq(A, C),
        )
        group.on_envelope(A, first)

        def state():
            return (
                dict(group.stats), group.queue_sizes(), set(group.pending),
                len(group.history), list(transport.sent),
            )

        before = state()
        group.on_envelope(A, first)
        # A taken number refuses any envelope, not only the same one.
        group.on_envelope(
            A,
            FlexCastMsg(
                message=msg("m2", {A, C}), history=delta([("m2", {A, C})]),
                seq=first.seq,
            ),
        )
        assert state() == before
        assert group.stats["channel_gaps"] == 0
        assert sink.sequence(C) == []

    def test_a_gap_stops_its_channel_and_no_other(self, overlay, seq):
        group, _, sink = make_group(C, overlay)
        seq(A, C)  # lost on the way
        for mid in ("m2", "m3"):
            group.on_envelope(
                A,
                FlexCastMsg(
                    message=msg(mid, {A, C}), history=delta([(mid, {A, C})]),
                    seq=seq(A, C),
                ),
            )
        group.on_envelope(
            B,
            FlexCastMsg(
                message=msg("m4", {B, C}), history=delta([("m4", {B, C})]),
                seq=seq(B, C),
            ),
        )
        assert sink.sequence(C) == ["m4"]
        assert "m2" not in group.history and "m3" not in group.history
        assert group.queue_sizes() == {A: 0, B: 0, C: 0}

    def test_the_counter_reads_the_number_of_gaps(self, overlay, seq):
        from repro.obs import Observability

        group, _, _ = make_group(C, overlay)
        obs = Observability()
        group.attach_obs(obs)
        seq(B, C)  # lost on the way
        for _ in range(3):
            group.on_envelope(
                B,
                FlexCastAck(
                    message=msg("m1", {A, B, C}), history=EMPTY_DELTA,
                    from_group=B, seq=seq(B, C),
                ),
            )
        # A frame written before envelopes were numbered decodes as 0.
        group.on_envelope(
            A,
            FlexCastNotif(
                message=msg("m2", {A, B}), history=EMPTY_DELTA, from_group=A, seq=0
            ),
        )
        assert group.stats["channel_gaps"] == 4
        counters = obs.registry.snapshot()["counters"]
        assert counters['flexcast_channel_gaps_total{group="C"}'] == 4
        assert group.pending == {}


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
ARRIVALS = ("msg", "ack", "notif", "retry")
#: ... and every way the group can already be past it.  ``in-flight`` is a
#: batch *member* retried while its carrier is still queued: it has no
#: pending entry or history vertex of its own, only the member index sees it.
STATES = ("delivered", "forgotten", "in-flight")

#: What an arrival legitimately moves, by (arrival, state); everything else
#: in :func:`_observable` must come out as it went in.  An ack about a member
#: id means some group ordered that member as a unit of its own (a
#: non-compliant client submitted it both ways), and an ack — which may
#: precede its msg — is kept.
MAY_CHANGE = {("ack", "in-flight"): {"pending"}}


def _observable(group, sink, obs):
    gauges = obs.registry.snapshot()["gauges"]
    label = f'{{group="{group.group_id}"}}'
    return {
        "pending": {
            mid: (set(e.acks), set(e.notified), e.enqueued)
            for mid, e in group.pending.items()
        },
        "members": dict(group._batch_members),
        "queues": group.queue_sizes(),
        "leaked": gauges["flexcast_leaked_pending_entries" + label],
        "orphans": gauges["flexcast_member_index_orphans" + label],
        "delivered": sink.sequence(group.group_id),
    }


class TestDuplicateArrivalMatrix:
    """An arrival about an id the group is already past leaves no trace:
    no pending entry, no member-index row, both leak gauges at zero —
    whether the id was delivered, delivered and then pruned by the flush GC
    (the history's forgotten set is then the only record of it), or rides in
    a batch that is still in flight.  Each envelope takes a new number on its
    channel, so it is the protocol, not the channel, that absorbs it.

    ``retry`` runs at the lca ``A`` (clients submit there), the envelopes at
    the highest destination ``C``; the subject is addressed to all three
    groups, so ``C`` waits for ``B``'s ack.  The lca delivers a batch on
    submission, so no member of one is in flight there.
    """

    DST = {A, B, C}

    def _build(self, site, state, overlay, seq):
        from repro.obs import Observability

        group, _, sink = make_group(site, overlay)
        obs = Observability()
        group.attach_obs(obs)
        subject = msg("m1", self.DST)
        unit = subject
        if state == "in-flight":
            unit = Message.batch_of([subject, msg("m2", self.DST)], batch_id="b0")
        if site == A:
            group.on_envelope("client", ClientRequest(message=unit))
        else:
            group.on_envelope(
                A, FlexCastMsg(message=unit, history=EMPTY_DELTA, seq=seq(A, site))
            )
        if state == "in-flight":
            assert sink.sequence(site) == []
            return group, sink, obs, subject
        if site == C:
            group.on_envelope(
                B,
                FlexCastAck(
                    message=unit, history=EMPTY_DELTA, from_group=B, seq=seq(B, site)
                ),
            )
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
                        seq=seq(A, site),
                    ),
                )
            assert sink.sequence(site) == ["m1", "f1"]
            assert group.history.is_forgotten("m1") and "m1" not in group.pending
        return group, sink, obs, subject

    @pytest.mark.parametrize(
        "arrival,state",
        [
            (arrival, state)
            for arrival in ARRIVALS
            for state in STATES
            if (arrival, state) != ("retry", "in-flight")
        ],
    )
    def test_arrival_leaves_no_trace(self, arrival, state, overlay, seq):
        site = A if arrival == "retry" else C
        group, sink, obs, subject = self._build(site, state, overlay, seq)
        before = _observable(group, sink, obs)
        if arrival == "msg":
            envelope = FlexCastMsg(
                message=subject, history=EMPTY_DELTA, seq=seq(A, site)
            )
        elif arrival == "ack":
            envelope = FlexCastAck(
                message=subject, history=EMPTY_DELTA, from_group=B, seq=seq(B, site)
            )
        elif arrival == "notif":
            envelope = FlexCastNotif(
                message=subject, history=EMPTY_DELTA, from_group=A, seq=seq(A, site)
            )
        else:
            envelope = ClientRequest(message=subject)
        group.on_envelope("client" if arrival == "retry" else B, envelope)
        after = _observable(group, sink, obs)
        assert after["leaked"] == after["orphans"] == 0
        for key in MAY_CHANGE.get((arrival, state), ()):
            before.pop(key), after.pop(key)
        assert after == before
