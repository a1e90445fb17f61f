"""Unit tests for the distributed (Skeen) baseline."""

import random

import pytest

from repro.checker.properties import check_trace
from repro.core.message import ClientRequest, Message, SkeenTimestamp
from repro.overlay.base import CompleteGraphOverlay, OverlayError
from repro.protocols.base import ProtocolError, RecordingSink
from repro.protocols.skeen import SkeenGroup, SkeenProtocol, _Pending
from repro.sim.transport import RecordingTransport


@pytest.fixture
def overlay():
    return CompleteGraphOverlay([0, 1, 2])


def make_group(gid, overlay):
    transport = RecordingTransport(gid)
    sink = RecordingSink()
    return SkeenGroup(gid, overlay, transport, sink), transport, sink


def msg(mid, dst):
    return Message(msg_id=mid, dst=frozenset(dst))


def sent_timestamps(transport):
    """``(msg_id, timestamp)`` of every proposal sent, in send order."""
    return [
        (env.msg_id, env.timestamp)
        for _, env in transport.sent
        if isinstance(env, SkeenTimestamp)
    ]


class TestProposals:
    def test_local_message_delivered_immediately(self, overlay):
        group, transport, sink = make_group(0, overlay)
        group.on_client_request(msg("m1", {0}))
        assert sink.sequence(0) == ["m1"]
        assert transport.sent == []

    def test_proposal_sent_to_every_other_destination(self, overlay):
        group, transport, sink = make_group(0, overlay)
        group.on_client_request(msg("m1", {0, 1, 2}))
        destinations = sorted(dst for dst, env in transport.sent if isinstance(env, SkeenTimestamp))
        assert destinations == [1, 2]
        assert sink.sequence(0) == []  # not decided yet

    def test_delivery_after_all_timestamps(self, overlay):
        group, transport, sink = make_group(0, overlay)
        m = msg("m1", {0, 1})
        group.on_client_request(m)
        group.on_envelope(1, SkeenTimestamp(msg_id="m1", timestamp=4, from_group=1))
        assert sink.sequence(0) == ["m1"]

    def test_timestamp_before_request_is_buffered(self, overlay):
        group, transport, sink = make_group(0, overlay)
        group.on_envelope(1, SkeenTimestamp(msg_id="m1", timestamp=4, from_group=1))
        assert sink.sequence(0) == []
        group.on_client_request(msg("m1", {0, 1}))
        assert sink.sequence(0) == ["m1"]

    def test_duplicate_request_ignored(self, overlay):
        group, transport, sink = make_group(0, overlay)
        m = msg("m1", {0, 1})
        group.on_client_request(m)
        group.on_client_request(m)
        group.on_envelope(1, SkeenTimestamp(msg_id="m1", timestamp=9, from_group=1))
        assert sink.sequence(0) == ["m1"]

    def test_request_to_non_destination_rejected(self, overlay):
        group, _, _ = make_group(2, overlay)
        with pytest.raises(ProtocolError):
            group.on_client_request(msg("m1", {0, 1}))

    def test_request_envelope_to_non_destination_rejected(self, overlay):
        group, transport, _ = make_group(2, overlay)
        with pytest.raises(ProtocolError):
            group.on_envelope(1, ClientRequest(message=msg("m1", {0, 1})))
        assert group.clock == 0 and transport.sent == []

    def test_clock_advances_with_received_timestamps(self, overlay):
        group, transport, sink = make_group(0, overlay)
        group.on_envelope(1, SkeenTimestamp(msg_id="mx", timestamp=50, from_group=1))
        group.on_client_request(msg("m1", {0, 1}))
        proposals = [env for _, env in transport.sent if isinstance(env, SkeenTimestamp)]
        assert proposals[0].timestamp > 50


class TestOrdering:
    def test_messages_delivered_in_final_timestamp_order(self, overlay):
        group, transport, sink = make_group(0, overlay)
        group.on_client_request(msg("m1", {0, 1}))
        group.on_client_request(msg("m2", {0, 2}))
        # m2's final timestamp (10) is larger than m1's (5): deliver m1 first
        # even though m2's decision arrives first.
        group.on_envelope(2, SkeenTimestamp(msg_id="m2", timestamp=10, from_group=2))
        assert sink.sequence(0) == []  # m1 pending with smaller timestamp
        group.on_envelope(1, SkeenTimestamp(msg_id="m1", timestamp=5, from_group=1))
        assert sink.sequence(0) == ["m1", "m2"]

    def test_undecided_message_with_smaller_proposal_blocks_delivery(self, overlay):
        group, transport, sink = make_group(0, overlay)
        group.on_client_request(msg("m1", {0, 1}))   # local ts 1
        group.on_client_request(msg("m2", {0, 2}))   # local ts 2
        group.on_envelope(2, SkeenTimestamp(msg_id="m2", timestamp=2, from_group=2))
        # m2 is decided, but m1 is still undecided with a lower local
        # timestamp and could decide below it, so m2 must wait.
        assert group._pending["m2"].final == 2
        assert sink.sequence(0) == []
        group.on_envelope(1, SkeenTimestamp(msg_id="m1", timestamp=7, from_group=1))
        # Now m1 decides at 7 > 2, so m2 goes first.
        assert sink.sequence(0) == ["m2", "m1"]

    def test_pending_count(self, overlay):
        group, transport, sink = make_group(0, overlay)
        group.on_client_request(msg("m1", {0, 1}))
        assert group.pending_count() == 1


class TestSkeenProtocol:
    def test_entry_groups_are_all_destinations(self, overlay):
        protocol = SkeenProtocol(overlay)
        assert protocol.entry_groups(msg("m1", {2, 0})) == [0, 2]
        assert protocol.genuine
        assert protocol.name == "Distributed"

    def test_entry_groups_reject_unknown_destinations(self, overlay):
        with pytest.raises(OverlayError):
            SkeenProtocol(overlay).entry_groups(msg("m1", {0, 7}))

    def test_create_group(self, overlay):
        protocol = SkeenProtocol(overlay)
        group = protocol.create_group(1, RecordingTransport(1), RecordingSink())
        assert isinstance(group, SkeenGroup)

    def test_unexpected_envelope_rejected(self, overlay):
        group, _, _ = make_group(0, overlay)
        with pytest.raises(ProtocolError):
            group.on_envelope(1, object())


class TestTimestamps:
    """The timestamp half of Skeen's algorithm: Lamport clock, max-merge."""

    def test_local_timestamps_rise_with_the_lamport_clock(self, overlay):
        group, transport, _ = make_group(0, overlay)
        group.on_client_request(msg("m1", {0, 1}))
        group.on_client_request(msg("m2", {0, 2}))
        assert group.clock == 2
        group.on_envelope(1, SkeenTimestamp(msg_id="mx", timestamp=50, from_group=1))
        assert group.clock == 50
        group.on_client_request(msg("m3", {0, 1}))
        # Every proposal exceeds every timestamp the group has seen.
        assert sent_timestamps(transport) == [("m1", 1), ("m2", 2), ("m3", 51)]

    def test_own_proposal_is_recorded(self, overlay):
        group, _, _ = make_group(0, overlay)
        group.on_client_request(msg("m1", {0, 1}))
        entry = group._pending["m1"]
        assert (entry.local, entry.proposals, entry.final) == (1, {0: 1}, None)

    def test_duplicate_request_mints_no_second_timestamp(self, overlay):
        group, transport, _ = make_group(0, overlay)
        m = msg("m1", {0, 1, 2})
        group.on_client_request(m)
        group.on_envelope(1, ClientRequest(message=m))
        # A second proposal could retract a bound already disseminated.
        assert sent_timestamps(transport) == [("m1", 1), ("m1", 1)]
        assert group.clock == 1

    def test_request_after_delivery_is_ignored(self, overlay):
        group, transport, sink = make_group(0, overlay)
        group.on_client_request(msg("m1", {0}))
        group.on_client_request(msg("m1", {0}))
        assert sink.sequence(0) == ["m1"]
        assert group.clock == 1
        assert group.pending_count() == 0

    def test_deciding_merges_the_final_timestamp_into_the_clock(self, overlay):
        group, transport, _ = make_group(0, overlay)
        group.on_client_request(msg("m1", {0, 1}))
        group.on_envelope(1, SkeenTimestamp(msg_id="m1", timestamp=30, from_group=1))
        group.on_client_request(msg("m2", {0, 1}))
        assert sent_timestamps(transport)[-1] == ("m2", 31)

    def test_final_timestamp_is_the_max_of_all_proposals(self, overlay):
        group, _, sink = make_group(0, overlay)
        group.on_client_request(msg("m1", {0, 1, 2}))  # local ts 1
        group.on_client_request(msg("m2", {0, 1}))     # local ts 2
        group.on_envelope(1, SkeenTimestamp(msg_id="m2", timestamp=6, from_group=1))
        group.on_envelope(1, SkeenTimestamp(msg_id="m1", timestamp=7, from_group=1))
        assert sink.sequence(0) == []  # m1 still lacks group 2's proposal
        group.on_envelope(2, SkeenTimestamp(msg_id="m1", timestamp=4, from_group=2))
        # m1 decides at max(1, 7, 4) = 7, behind m2's 6.
        assert sink.sequence(0) == ["m2", "m1"]

    def test_stale_duplicate_proposal_cannot_lower_a_bound(self, overlay):
        group, _, sink = make_group(0, overlay)
        group.on_client_request(msg("m1", {0, 1, 2}))
        group.on_client_request(msg("m2", {0, 1}))
        group.on_envelope(1, SkeenTimestamp(msg_id="m1", timestamp=9, from_group=1))
        # A duplicated envelope re-delivers an older, smaller proposal.
        group.on_envelope(1, SkeenTimestamp(msg_id="m1", timestamp=3, from_group=1))
        assert group._pending["m1"].proposals[1] == 9
        group.on_envelope(1, SkeenTimestamp(msg_id="m2", timestamp=6, from_group=1))
        group.on_envelope(2, SkeenTimestamp(msg_id="m1", timestamp=4, from_group=2))
        # m1 decides at 9, not 4: m2 (6) goes first.
        assert sink.sequence(0) == ["m2", "m1"]

    def test_larger_duplicate_proposal_raises_the_bound(self, overlay):
        group, _, sink = make_group(0, overlay)
        group.on_client_request(msg("m1", {0, 1, 2}))
        group.on_client_request(msg("m2", {0, 1}))
        group.on_envelope(1, SkeenTimestamp(msg_id="m1", timestamp=9, from_group=1))
        # The proposer max-merged meanwhile and re-proposed higher.
        group.on_envelope(1, SkeenTimestamp(msg_id="m1", timestamp=12, from_group=1))
        assert group._pending["m1"].proposals[1] == 12
        group.on_envelope(1, SkeenTimestamp(msg_id="m2", timestamp=10, from_group=1))
        group.on_envelope(2, SkeenTimestamp(msg_id="m1", timestamp=4, from_group=2))
        # m1 decides at 12, behind m2's 10.
        assert sink.sequence(0) == ["m2", "m1"]

    def test_early_proposal_is_buffered_until_first_contact_keeping_its_max(
        self, overlay
    ):
        group, transport, sink = make_group(0, overlay)
        group.on_envelope(1, SkeenTimestamp(msg_id="m1", timestamp=8, from_group=1))
        group.on_envelope(1, SkeenTimestamp(msg_id="m1", timestamp=2, from_group=1))
        assert group._early == {"m1": {1: 8}}
        assert group.pending_count() == 0
        group.on_client_request(msg("m1", {0, 1}))
        # First contact consumes the buffer: decided at once (local 9 > 8).
        assert sink.sequence(0) == ["m1"]
        assert sent_timestamps(transport) == [("m1", 9)]
        assert group._early == {}

    def test_early_proposal_alone_does_not_decide(self, overlay):
        group, _, sink = make_group(0, overlay)
        group.on_envelope(1, SkeenTimestamp(msg_id="m1", timestamp=3, from_group=1))
        group.on_client_request(msg("m1", {0, 1, 2}))
        # Group 2's proposal is still missing: m1 waits with both it has.
        assert group._pending["m1"].proposals == {0: 4, 1: 3}
        assert sink.sequence(0) == []
        group.on_envelope(2, SkeenTimestamp(msg_id="m1", timestamp=2, from_group=2))
        assert sink.sequence(0) == ["m1"]


class TestConvoyWait:
    def test_convoy_releases_when_the_blocker_decides(self, overlay):
        group, _, sink = make_group(0, overlay)
        group.on_client_request(msg("m1", {0, 1}))
        group.on_client_request(msg("m2", {0, 2}))
        group.on_envelope(2, SkeenTimestamp(msg_id="m2", timestamp=2, from_group=2))
        group.on_envelope(1, SkeenTimestamp(msg_id="m1", timestamp=1, from_group=1))
        # m1 decides at 1 < 2: the convoy releases both, in key order.
        assert sink.sequence(0) == ["m1", "m2"]
        assert group.pending_count() == 0

    def test_undecided_smallest_key_blocks_every_later_message(self, overlay):
        group, _, sink = make_group(0, overlay)
        group.on_client_request(msg("m1", {0, 1}))
        group.on_client_request(msg("m2", {0, 1}))
        group.on_client_request(msg("m3", {0}))  # singleton, decided at 3
        group.on_envelope(1, SkeenTimestamp(msg_id="m2", timestamp=2, from_group=1))
        assert sink.sequence(0) == []
        group.on_envelope(1, SkeenTimestamp(msg_id="m1", timestamp=1, from_group=1))
        assert sink.sequence(0) == ["m1", "m2", "m3"]

    def test_key_is_a_lower_bound_until_decided(self):
        entry = _Pending(msg("m1", {0, 1}), local=3)
        assert entry.key() == (3, "m1")
        entry.final = 11
        assert entry.key() == (11, "m1")

    def test_timestamp_tie_is_broken_by_message_id(self, overlay):
        group, _, sink = make_group(0, overlay)
        group.on_client_request(msg("mb", {0, 1}))  # local ts 1
        group.on_client_request(msg("ma", {0, 1}))  # local ts 2
        # Both decide with final timestamp 5: the id makes the key total.
        group.on_envelope(1, SkeenTimestamp(msg_id="mb", timestamp=5, from_group=1))
        group.on_envelope(1, SkeenTimestamp(msg_id="ma", timestamp=5, from_group=1))
        assert sink.sequence(0) == ["ma", "mb"]


class TestHygiene:
    def test_late_duplicate_after_delivery_leaves_no_state(self, overlay):
        group, transport, sink = make_group(0, overlay)
        group.on_client_request(msg("m1", {0, 1}))
        group.on_envelope(1, SkeenTimestamp(msg_id="m1", timestamp=4, from_group=1))
        assert sink.sequence(0) == ["m1"]
        # A message's state is dropped at delivery (the delivered-record is
        # the duplicate guard), so a late duplicate only advances the clock:
        # no pending entry and no early buffer accumulate over the group's
        # lifetime.
        group.on_envelope(1, SkeenTimestamp(msg_id="m1", timestamp=9, from_group=1))
        assert sink.sequence(0) == ["m1"]
        assert group.pending_count() == 0
        assert group._early == {}
        assert group.clock == 9

    def test_pending_count_tracks_live_messages(self, overlay):
        group, _, _ = make_group(0, overlay)
        group.on_client_request(msg("m1", {0, 1}))
        group.on_client_request(msg("m2", {0, 1}))
        assert group.pending_count() == 2
        group.on_envelope(1, SkeenTimestamp(msg_id="m1", timestamp=1, from_group=1))
        assert group.pending_count() == 1


class TestRandomSchedules:
    """Four groups exchange every envelope in a seeded random order, with
    duplicates: each group delivers each of its messages once, all groups
    agree on the order, and no per-message state outlives delivery."""

    @pytest.mark.parametrize("seed", range(10))
    def test_shuffled_duplicated_envelopes_keep_one_total_order(self, seed):
        rng = random.Random(seed)
        overlay = CompleteGraphOverlay([0, 1, 2, 3])
        sink = RecordingSink()
        transports = {gid: RecordingTransport(gid) for gid in overlay.groups}
        groups = {
            gid: SkeenGroup(gid, overlay, transports[gid], sink)
            for gid in overlay.groups
        }
        messages = [
            msg(f"m{i}", rng.sample(overlay.groups, rng.randint(1, 3)))
            for i in range(12)
        ]
        in_flight = [
            (gid, ClientRequest(message=m)) for m in messages for gid in sorted(m.dst)
        ]
        while in_flight:
            dest, envelope = in_flight.pop(rng.randrange(len(in_flight)))
            if rng.random() < 0.2:
                in_flight.append((dest, envelope))  # delivered twice
            groups[dest].on_envelope(None, envelope)
            for transport in transports.values():
                in_flight.extend(transport.sent)
                transport.sent.clear()
        check_trace(sink, messages).raise_if_failed()
        for group in groups.values():
            assert group.pending_count() == 0
            assert group._early == {}
