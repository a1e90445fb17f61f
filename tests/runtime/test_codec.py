"""Tests for the wire codec."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.message import (
    ClientRequest,
    ClientResponse,
    EMPTY_DELTA,
    FlexCastAck,
    FlexCastBatch,
    FlexCastMsg,
    FlexCastNotif,
    FlexCastTsPropose,
    HistoryDelta,
    HistorySnapshot,
    HistorySnapshotFrame,
    Message,
    SkeenPropose,
    SkeenTimestamp,
    TreeForward,
)
from repro.runtime.codec import CodecError, decode_frame, encode_frame, envelope_to_dict


def round_trip(envelope, sender="node-1"):
    frame = encode_frame(sender, envelope)
    # Strip the 4-byte length prefix before decoding the body.
    decoded_sender, decoded = decode_frame(frame[4:])
    assert decoded_sender == sender
    return decoded


def sample_message():
    return Message(
        msg_id="m42",
        dst=frozenset({1, 3}),
        sender="client-7",
        payload={"op": "new_order"},
        payload_bytes=320,
        is_flush=False,
    )


def sample_delta():
    return HistoryDelta(
        vertices=(("m1", frozenset({1})), ("m2", frozenset({1, 3}))),
        edges=(("m1", "m2"),),
        last_delivered="m2",
    )


class TestRoundTrips:
    def test_client_request(self):
        decoded = round_trip(ClientRequest(message=sample_message()))
        assert decoded.message == sample_message()

    def test_client_response(self):
        decoded = round_trip(ClientResponse(msg_id="m42", group=3))
        assert decoded.msg_id == "m42" and decoded.group == 3

    def test_flexcast_msg_with_history(self):
        envelope = FlexCastMsg(
            message=sample_message(), history=sample_delta(), notified=frozenset({2})
        )
        decoded = round_trip(envelope)
        assert decoded == envelope

    def test_flexcast_ack_and_notif(self):
        ack = FlexCastAck(
            message=sample_message(), history=sample_delta(), from_group=1,
            notified=frozenset({2, 4}),
        )
        notif = FlexCastNotif(message=sample_message(), history=EMPTY_DELTA, from_group=1)
        assert round_trip(ack) == ack
        assert round_trip(notif) == notif

    def test_flexcast_ts_propose(self):
        propose = FlexCastTsPropose(message=sample_message(), timestamp=23, from_group=3)
        assert round_trip(propose) == propose

    def test_piggybacked_ts_proposals_survive(self):
        envelope = FlexCastMsg(
            message=sample_message(),
            history=sample_delta(),
            notified=frozenset({2}),
            ts_proposals=((1, 5), (3, 9)),
        )
        assert round_trip(envelope) == envelope
        ack = FlexCastAck(
            message=sample_message(),
            history=EMPTY_DELTA,
            from_group=3,
            ts_proposals=((3, 9),),
        )
        assert round_trip(ack) == ack

    def test_skeen_envelopes(self):
        ts = SkeenTimestamp(msg_id="m42", timestamp=17, from_group=4)
        propose = SkeenPropose(message=sample_message())
        assert round_trip(ts) == ts
        assert round_trip(propose) == propose

    def test_tree_forward(self):
        forward = TreeForward(message=sample_message(), sequence=9)
        assert round_trip(forward) == forward

    def test_flush_flag_survives(self):
        flush = Message(msg_id="f1", dst=frozenset({0, 1}), is_flush=True)
        decoded = round_trip(ClientRequest(message=flush))
        assert decoded.message.is_flush

    def test_flexcast_batch(self):
        members = [
            Message(
                msg_id=f"m{i}",
                dst=frozenset({1, 3}),
                sender="client-7",
                payload={"seq": i},
                payload_bytes=48,
            )
            for i in range(4)
        ]
        envelope = FlexCastBatch(message=Message.batch_of(members, batch_id="b9"))
        decoded = round_trip(envelope)
        # The decoded frame is still a *batch* (not a plain request) and the
        # carrier round-trips exactly: id, members in order, payloads.
        assert type(decoded) is FlexCastBatch
        assert decoded == envelope
        assert decoded.message.is_batch
        assert [m.msg_id for m in decoded.message.members] == ["m0", "m1", "m2", "m3"]
        assert decoded.message.members[2].payload == {"seq": 2}

    def test_batch_carrier_inside_msg_envelope(self):
        # Between groups a batch travels inside the ordinary msg envelope;
        # the carrier's members must survive that hop too.
        members = [
            Message(msg_id=f"m{i}", dst=frozenset({1, 3}), payload=i)
            for i in range(2)
        ]
        carrier = Message.batch_of(members, batch_id="b1")
        envelope = FlexCastMsg(message=carrier, history=sample_delta())
        decoded = round_trip(envelope)
        assert decoded == envelope
        assert decoded.message.members == tuple(members)

    def test_history_snapshot_frame(self):
        snapshot = HistorySnapshot(
            ids=("m1", "m2", "m3"),
            dsts=(frozenset({1}), frozenset({1, 3}), frozenset({3})),
            edges_a=("m1", "m2"),
            edges_b=("m2", "m3"),
            last_delivered="m3",
            version=5,
        )
        frame = HistorySnapshotFrame(
            group=3,
            delta=HistoryDelta(
                vertices=(("m4", frozenset({1})),),
                edges=(("m3", "m4"),),
                last_delivered="m4",
                seq=7,
                snapshot=snapshot,
            ),
        )
        decoded = round_trip(frame)
        assert type(decoded) is HistorySnapshotFrame
        assert decoded == frame
        # Installing the decoded delta must see the full logical content.
        assert set(decoded.delta.iter_vertices()) == set(frame.delta.iter_vertices())
        assert set(decoded.delta.iter_edges()) == {("m1", "m2"), ("m2", "m3"), ("m3", "m4")}

    def test_snapshot_bearing_delta_inside_msg_envelope(self):
        snapshot = HistorySnapshot(
            ids=("m1",), dsts=(frozenset({1}),), last_delivered="m1", version=1
        )
        cold = HistoryDelta(last_delivered="m1", seq=1, snapshot=snapshot)
        envelope = FlexCastMsg(message=sample_message(), history=cold)
        decoded = round_trip(envelope)
        assert decoded == envelope
        assert decoded.history.snapshot == snapshot

    def test_decoded_snapshot_ids_are_interned(self):
        # The decode boundary interns every id so the receiving group's
        # indexes hold pointer-identical strings.
        snapshot = HistorySnapshot(
            ids=("snap-vertex-1",), dsts=(frozenset({1}),), version=1
        )
        frame = HistorySnapshotFrame(
            group=1, delta=HistoryDelta(seq=1, snapshot=snapshot)
        )
        decoded = round_trip(frame)
        import sys as _sys

        assert decoded.delta.snapshot.ids[0] is _sys.intern("snap-vertex-1")

    def test_warm_delta_has_no_snapshot_key(self):
        # Warm diffs must keep their historical byte-for-byte frame shape:
        # the snapshot field is emitted only when set.
        envelope = FlexCastMsg(message=sample_message(), history=sample_delta())
        frame = encode_frame("n", envelope)
        assert b"snapshot" not in frame
        assert round_trip(envelope).history.snapshot is None

    def test_plain_message_has_no_members_key(self):
        # Pre-batching peers must keep decoding unchanged frames: ordinary
        # messages do not even mention the members field on the wire.
        frame = encode_frame("n", ClientRequest(message=sample_message()))
        assert b"members" not in frame
        decoded = round_trip(ClientRequest(message=sample_message()))
        assert decoded.message.members == ()


ids = st.text(alphabet="abmx0123456789-", min_size=1, max_size=8)
groups = st.integers(0, 11)
destinations = st.frozensets(groups, min_size=1, max_size=4)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**40), 2**40) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
messages = st.builds(
    Message,
    msg_id=ids,
    dst=destinations,
    sender=st.one_of(st.text(max_size=8), groups),
    payload=json_values,
    payload_bytes=st.integers(0, 4096),
    is_flush=st.booleans(),
    trace_id=st.none() | ids,
)
deltas = st.builds(
    HistoryDelta,
    vertices=st.lists(st.tuples(ids, destinations), max_size=5).map(tuple),
    edges=st.lists(st.tuples(ids, ids), max_size=5).map(tuple),
    last_delivered=st.none() | ids,
    seq=st.none() | st.integers(0, 10**6),
)
ts_proposals = st.lists(st.tuples(groups, st.integers(0, 10**6)), max_size=3).map(tuple)
notified = st.frozensets(groups, max_size=4)

#: Every envelope a FlexCast group sends or a client submits, over any content.
FLEXCAST_ENVELOPES = {
    "request": st.builds(ClientRequest, message=messages),
    "batch": st.builds(
        lambda members, batch_id: FlexCastBatch(
            message=Message.batch_of(members, batch_id=batch_id)
        ),
        st.lists(messages, min_size=1, max_size=3).map(
            lambda ms: [
                Message(msg_id=f"{m.msg_id}.{i}", dst=ms[0].dst, payload=m.payload)
                for i, m in enumerate(ms)
            ]
        ),
        ids,
    ),
    "msg": st.builds(
        FlexCastMsg,
        message=messages,
        history=deltas,
        notified=notified,
        ts_proposals=ts_proposals,
    ),
    "ack": st.builds(
        FlexCastAck,
        message=messages,
        history=deltas,
        from_group=groups,
        notified=notified,
        ts_proposals=ts_proposals,
    ),
    "notif": st.builds(FlexCastNotif, message=messages, history=deltas, from_group=groups),
    "ts-propose": st.builds(
        FlexCastTsPropose,
        message=messages,
        timestamp=st.integers(0, 10**9),
        from_group=groups,
    ),
    "history-snapshot": st.builds(HistorySnapshotFrame, group=groups, delta=deltas),
}


class TestAnyContentRoundTrips:
    @pytest.mark.parametrize("kind", sorted(FLEXCAST_ENVELOPES))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_envelope_round_trips(self, kind, data):
        envelope = data.draw(FLEXCAST_ENVELOPES[kind])
        sender = data.draw(st.one_of(ids, groups))
        decoded = round_trip(envelope, sender=sender)
        assert type(decoded) is type(envelope)
        assert decoded == envelope


#: The envelopes that carried an overlay ``epoch`` stamp, as written today.
ONCE_EPOCH_STAMPED = {
    "msg": FlexCastMsg(
        message=sample_message(), history=sample_delta(), notified=frozenset({2})
    ),
    "ack": FlexCastAck(message=sample_message(), history=sample_delta(), from_group=1),
    "notif": FlexCastNotif(message=sample_message(), history=sample_delta(), from_group=1),
    "ts-propose": FlexCastTsPropose(message=sample_message(), timestamp=23, from_group=3),
    "history-snapshot": HistorySnapshotFrame(group=3, delta=sample_delta()),
}


class TestOldEpochStamp:
    @pytest.mark.parametrize("kind", sorted(ONCE_EPOCH_STAMPED))
    def test_a_stamped_frame_decodes_to_the_unstamped_envelope(self, kind):
        envelope = ONCE_EPOCH_STAMPED[kind]
        body = json.loads(encode_frame("node-1", envelope)[4:])
        assert "epoch" not in body["envelope"]
        body["envelope"]["epoch"] = 0
        stamped = json.dumps(body).encode("utf-8")
        assert decode_frame(stamped) == ("node-1", envelope)


class TestTraceIdPropagation:
    """The observability trace id must survive every message-carrying hop.

    Lifecycle tracing (repro.obs) correlates events across nodes by the
    ``trace_id`` stamped on the Message; a single envelope type dropping it
    silently truncates every distributed trace at that hop.
    """

    def traced(self, trace_id="t-7f"):
        return Message(
            msg_id="m1", dst=frozenset({1, 3}), sender="c", trace_id=trace_id
        )

    def test_every_message_envelope_preserves_trace_id(self):
        m = self.traced()
        envelopes = [
            ClientRequest(message=m),
            FlexCastBatch(message=Message.batch_of([m], batch_id="b1")),
            FlexCastMsg(message=m, history=sample_delta()),
            FlexCastAck(message=m, history=sample_delta(), from_group=1),
            FlexCastNotif(message=m, history=sample_delta(), from_group=1),
            FlexCastTsPropose(message=m, timestamp=5, from_group=1),
            SkeenPropose(message=m),
            TreeForward(message=m, sequence=9),
        ]
        for envelope in envelopes:
            decoded = round_trip(envelope)
            carried = decoded.message
            if carried.is_batch:
                # Batch carrier: members keep their own trace ids.
                assert carried.members[0].trace_id == "t-7f", type(envelope)
            else:
                assert carried.trace_id == "t-7f", type(envelope)

    def test_untraced_message_omits_the_key_on_the_wire(self):
        # Frames from uninstrumented runs must stay byte-for-byte what they
        # were before the observability layer existed.
        frame = encode_frame("n", ClientRequest(message=sample_message()))
        assert b"trace_id" not in frame
        decoded = round_trip(ClientRequest(message=sample_message()))
        assert decoded.message.trace_id is None


class TestErrors:
    def test_unknown_envelope_type_rejected_on_encode(self):
        with pytest.raises(CodecError):
            encode_frame("n", object())

    def test_malformed_body_rejected_on_decode(self):
        with pytest.raises(CodecError):
            decode_frame(b"this is not json")

    def test_unknown_type_rejected_on_decode(self):
        import json

        body = json.dumps({"sender": "x", "envelope": {"type": "mystery"}}).encode()
        with pytest.raises(CodecError):
            decode_frame(body)

    def test_length_prefix_matches_body(self):
        frame = encode_frame("n", ClientResponse(msg_id="m1", group=1))
        import struct

        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4


class TestSmrRoundTrips:
    """The process-cluster runtime replicates groups over TCP: every
    multi-Paxos frame (and the transport-level NodeHello) must survive the
    wire with log values carried through the OrderedEnvelope wire form."""

    def _ordered(self):
        from repro.smr.replica import OrderedEnvelope, Turn

        # A log value: the turn of one entry a replica received.
        return Turn((OrderedEnvelope(
            sender="client-7", envelope=ClientRequest(message=sample_message())
        ),))

    def test_node_hello(self):
        from repro.core.message import NodeHello

        decoded = round_trip(NodeHello(node_id="soak-client-3",
                                       host="127.0.0.1", port=45123))
        assert decoded == NodeHello(node_id="soak-client-3",
                                    host="127.0.0.1", port=45123)

    def test_client_command_and_commit(self):
        from repro.smr.multipaxos import ClientCommand, Commit
        from repro.smr.paxos import Ballot

        entry = self._ordered()
        assert round_trip(ClientCommand(payload=entry)) == ClientCommand(payload=entry)
        # A commit names the decision (instance, ballot); the value crossed
        # the wire in the Accept.
        commit = Commit(instance=7, ballot=Ballot(2, 1))
        assert round_trip(commit) == commit
        assert "value" not in envelope_to_dict(commit)

    def test_plain_values_pass_through(self):
        # Tests submit plain JSON-able commands; they must not be wrapped.
        # (In the dictionary a log value is its JSON text, to be spliced in.)
        from repro.smr.multipaxos import ClientCommand
        from repro.smr.paxos import Accept, Ballot

        assert envelope_to_dict(ClientCommand(payload="cmd-a"))["payload"] == b'"cmd-a"'
        accept = Accept(instance=0, ballot=Ballot(0, 0), value="cmd-a")
        assert envelope_to_dict(accept)["value"] == b'"cmd-a"'
        assert round_trip(accept) == accept

    def test_heartbeat_and_catchup(self):
        from repro.smr.multipaxos import CatchupReply, CatchupRequest, Heartbeat

        entry = self._ordered()
        assert round_trip(Heartbeat(leader="group-0-replica-0")).leader == (
            "group-0-replica-0"
        )
        request = CatchupRequest(from_instance=3, from_replica="group-0-replica-2")
        assert round_trip(request) == request
        reply = CatchupReply(entries=((1, entry), (2, "plain")))
        assert round_trip(reply) == reply

    def test_paxos_phases(self):
        from repro.smr.paxos import (
            Accept,
            Accepted,
            Ballot,
            Nack,
            Prepare,
            Promise,
        )

        entry = self._ordered()
        ballot = Ballot(2, 1)
        assert round_trip(Prepare(instance=1, ballot=ballot)) == Prepare(
            instance=1, ballot=ballot
        )
        # A fresh promise reports nothing accepted ...
        fresh = Promise(instance=1, ballot=ballot, accepted=(),
                        from_replica="group-0-replica-1")
        assert round_trip(fresh) == fresh
        # ... one forced by earlier accepts carries every (instance, ballot,
        # value) from where it starts, log entries in their wire form.
        forced = Promise(instance=4, ballot=ballot,
                         accepted=((4, Ballot(1, 0), entry), (6, Ballot(0, 2), "plain")),
                         from_replica="group-0-replica-1")
        assert round_trip(forced) == forced
        accept = Accept(instance=1, ballot=ballot, value=entry)
        assert round_trip(accept) == accept
        accepted = Accepted(instance=1, ballot=ballot, from_replica="group-0-replica-2")
        assert round_trip(accepted) == accepted
        assert "value" not in envelope_to_dict(accepted)
        nack = Nack(instance=1, ballot=ballot, promised=Ballot(3, 0),
                    from_replica="group-0-replica-2")
        assert round_trip(nack) == nack
