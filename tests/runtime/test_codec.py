"""Tests for the wire codec."""

import asyncio
import dataclasses
import json
import socket
import struct

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
    HistoryDelta,
    Message,
    NodeHello,
    SkeenTimestamp,
    TreeForward,
)
from repro.runtime import codec
from repro.runtime.codec import (
    CodecError,
    decode_frame,
    encode_frame,
    envelope_to_row,
    turn_entries,
)
from repro.runtime.node import FrameServer, _http_get
from repro.smr.multipaxos import (
    CatchupReply,
    CatchupRequest,
    ClientCommand,
    Commit,
    Heartbeat,
    UnreadableValue,
)
from repro.smr.paxos import Accept, Accepted, Ballot, Nack, Prepare, Promise
from repro.smr.replica import OrderedEnvelope, Turn


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
    )


#: A message row's items, in row order: the keys of a message object.
MESSAGE_KEYS = (
    "msg_id", "dst", "sender", "payload", "payload_bytes", "is_flush", "trace_id", "members",
)


def message_object(row):
    """A message row as the object written before envelopes were rows."""
    message = dict(zip(MESSAGE_KEYS, row))
    message.setdefault("is_flush", False)
    if message.get("trace_id", 0) is None:
        del message["trace_id"]
    if "members" in message:
        message["members"] = [
            item if len(item) < 5 else message_object(item) for item in message["members"]
        ]
    return message


def envelope_object(row):
    """An envelope row as the object written before rows: its schema row's
    field names as keys (a value that left the row for a line of its own
    stays out of the object too)."""
    ((_, tag, *fields),) = [entry for entry in codec._SCHEMA if entry[1] == row[0]]
    envelope = {"type": tag}
    for spec, value in zip(fields, row[1:]):
        if spec is codec._MESSAGE:
            value = message_object(value)
        elif spec is codec._HISTORY:
            value = {"vertices": value[0], "edges": value[1]}
        envelope[spec if isinstance(spec, str) else spec[0]] = value
    return envelope


def compact(value):
    return json.dumps(value, separators=(",", ":")).encode("utf-8")


def object_frame(body):
    """A frame body as written before envelopes were rows: the head an
    object, the value lines as they are."""
    head, *lines = body.split(b"\n")
    sender, row = json.loads(head)
    return b"\n".join([compact({"sender": sender, "envelope": envelope_object(row)}), *lines])


def turn_object(text):
    """A turn's text as written before rows: one entry its object, several
    an array of them."""
    marker, *entries = json.loads(text)
    assert marker == "__oe__"
    objects = [
        {"__oe__": 1, "sender": sender, "envelope": envelope_object(row)}
        for sender, row in entries
    ]
    return compact(objects[0] if len(objects) == 1 else objects)


def old_frame(envelope):
    """``envelope``'s frame as written before rows, its head parsed."""
    return json.loads(object_frame(encode_frame("node-1", envelope)[4:]))


def decode_old_delta(envelope, **keys):
    """``envelope`` decoded from a frame whose history delta also carries
    ``keys``, as deltas written before they shed them did."""
    body = old_frame(envelope)
    body["envelope"]["history"].update(keys)
    sender, decoded = decode_frame(json.dumps(body).encode("utf-8"))
    assert sender == "node-1"
    return decoded


class TestRoundTrips:
    def test_client_request(self):
        decoded = round_trip(ClientRequest(message=sample_message()))
        assert decoded.message == sample_message()

    def test_client_response(self):
        decoded = round_trip(ClientResponse(msg_id="m42", group=3))
        assert decoded.msg_id == "m42" and decoded.group == 3

    def test_flexcast_msg_with_history(self):
        envelope = FlexCastMsg(
            message=sample_message(), history=sample_delta(), seq=3,
            notified=frozenset({(2, 1)}),
        )
        decoded = round_trip(envelope)
        assert decoded == envelope

    def test_flexcast_ack_and_notif(self):
        ack = FlexCastAck(
            message=sample_message(), history=sample_delta(), from_group=2, seq=8,
            notifier=1, notified=frozenset({(4, 1), (4, 2)}),
        )
        notif = FlexCastNotif(
            message=sample_message(), history=EMPTY_DELTA, from_group=1, seq=9
        )
        assert round_trip(ack) == ack
        assert round_trip(notif) == notif

    def test_a_frame_older_than_the_channel_numbers_reads_as_seq_0(self):
        """No channel takes number 0, so a receiver refuses and counts an
        envelope from a frame written before envelopes were numbered; the
        journal ``seq`` its delta carried then is ignored (the decode-only
        corpora of ``test_wire_golden.py`` hold such frames as written)."""
        envelope = FlexCastAck(
            message=sample_message(), history=sample_delta(), from_group=3, seq=5
        )
        body = old_frame(envelope)
        del body["envelope"]["seq"]
        body["envelope"]["history"]["seq"] = 4
        _, decoded = decode_frame(json.dumps(body).encode("utf-8"))
        assert decoded == dataclasses.replace(envelope, seq=0)

    def test_a_frame_older_than_the_notifier_pairs_still_decodes(self):
        """Bare group ids in ``notified`` read as ``(group, None)``, and an
        ack without ``notifier`` as a destination's own ack: every frame and
        WAL written before the pairs replays."""
        for kind, envelope in (
            ("msg", FlexCastMsg(message=sample_message(), history=EMPTY_DELTA, seq=1)),
            (
                "ack",
                FlexCastAck(
                    message=sample_message(), history=EMPTY_DELTA, from_group=1, seq=1
                ),
            ),
        ):
            body = old_frame(envelope)
            body["envelope"]["notified"] = [4, 2]
            body["envelope"].pop("notifier", None)
            _, decoded = decode_frame(json.dumps(body).encode("utf-8"))
            assert decoded.notified == {(2, None), (4, None)}, kind
            if kind == "ack":
                assert decoded.notifier is None

    def test_skeen_envelopes(self):
        ts = SkeenTimestamp(msg_id="m42", timestamp=17, from_group=4)
        assert round_trip(ts) == ts

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
        envelope = FlexCastMsg(message=carrier, history=sample_delta(), seq=1)
        decoded = round_trip(envelope)
        assert decoded == envelope
        assert decoded.message.members == tuple(members)

    def test_decoded_delta_ids_are_interned(self):
        # The decode boundary interns every history id so the receiving
        # group's indexes hold pointer-identical strings.
        delta = HistoryDelta(
            (("delta-vertex-1", frozenset({1})),), (("m1", "delta-vertex-1"),)
        )
        decoded = round_trip(FlexCastMsg(message=sample_message(), history=delta, seq=1))
        import sys as _sys

        (vertex,), (edge,) = decoded.history.vertices, decoded.history.edges
        assert vertex[0] is _sys.intern("delta-vertex-1") and edge[1] is vertex[0]

    def test_history_snapshot_frame(self):
        # The retired frame that ordered a packed history through a group's
        # log has no schema row: decoding refuses it by name.
        assert "history-snapshot" not in [row[1] for row in codec._SCHEMA]
        body = {
            "sender": "n",
            "envelope": {
                "type": "history-snapshot",
                "group": 3,
                "history": {"vertices": [["m1", [1]], ["m2", [1, 3]]], "edges": [["m1", "m2"]]},
            },
        }
        with pytest.raises(CodecError, match="history-snapshot"):
            decode_frame(json.dumps(body).encode())

    def test_snapshot_bearing_delta_inside_msg_envelope(self):
        # A first contact written as a packed snapshot plus a suffix reads as
        # one plain delta: the snapshot's entries ahead of the suffix's.
        snapshot = {
            "ids": ["m1", "m2"], "dsts": [[1], [1, 3]],
            "edges_a": ["m1"], "edges_b": ["m2"],
            "last_delivered": "m2", "version": 3,
        }
        suffix = HistoryDelta((("m3", frozenset({3})),), (("m2", "m3"),))
        envelope = FlexCastMsg(message=sample_message(), history=suffix, seq=1)
        decoded = decode_old_delta(envelope, last_delivered="m3", snapshot=snapshot)
        assert decoded == dataclasses.replace(
            envelope,
            history=HistoryDelta(
                (("m1", frozenset({1})), ("m2", frozenset({1, 3})), ("m3", frozenset({3}))),
                (("m1", "m2"), ("m2", "m3")),
            ),
        )
        # Written again, it is today's shape.
        assert round_trip(decoded) == decoded

    def test_decoded_snapshot_ids_are_interned(self):
        # The old snapshot arrays cross the same decode boundary as any
        # delta's entries, so their ids are interned too.
        snapshot = {"ids": ["snap-vertex-1"], "dsts": [[1]], "version": 1}
        envelope = FlexCastMsg(message=sample_message(), history=EMPTY_DELTA, seq=1)
        decoded = decode_old_delta(envelope, snapshot=snapshot)
        import sys as _sys

        ((mid, dst),) = decoded.history.vertices
        assert mid is _sys.intern("snap-vertex-1") and dst == frozenset({1})

    def test_warm_delta_has_no_snapshot_key(self):
        # A delta is written as its vertices and edges alone: neither the
        # retired snapshot nor the unread last_delivered reaches the wire.
        envelope = FlexCastMsg(message=sample_message(), history=sample_delta(), seq=1)
        frame = encode_frame("n", envelope)
        assert b"snapshot" not in frame and b"last_delivered" not in frame
        history = json.loads(frame[4:])[1][2]
        assert history == [[["m1", [1]], ["m2", [1, 3]]], [["m1", "m2"]]]
        assert round_trip(envelope) == envelope

    def test_batch_members_travel_as_rows_under_the_carrier(self):
        # Members that share the carrier's destinations and sender ship only
        # what they add; one with a sender of its own travels in full.
        dst = frozenset({1, 3})
        members = [
            Message(msg_id="row-a", dst=dst, sender="c", payload=[1], payload_bytes=8),
            Message(msg_id="row-b", dst=dst, sender="c", payload=None, trace_id="t-9"),
            Message(msg_id="own-sender", dst=dst, sender="d", payload="p"),
        ]
        envelope = FlexCastBatch(message=Message.batch_of(members, batch_id="b3"))
        wire = envelope_to_row(envelope)[1][7]
        assert wire[:2] == [["row-a", [1], 8], ["row-b", None, 64, "t-9"]]
        assert wire[2] == ["own-sender", [1, 3], "d", "p", 64]
        decoded = round_trip(envelope)
        assert decoded == envelope
        carrier = decoded.message
        assert carrier.members[1].trace_id == "t-9"
        assert all(m.dst is carrier.dst for m in carrier.members[:2])
        assert carrier.members[0].sender is carrier.sender
        import sys as _sys

        assert all(m.msg_id is _sys.intern(m.msg_id) for m in carrier.members)

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
)
seqs = st.integers(0, 10**6)
notified = st.frozensets(st.tuples(groups, st.none() | groups), max_size=4)

#: Every envelope a FlexCast group sends or a client submits, over any content.
FLEXCAST_ENVELOPES = {
    "request": st.builds(ClientRequest, message=messages),
    "flexcast-batch": st.builds(
        lambda members, batch_id: FlexCastBatch(
            message=Message.batch_of(members, batch_id=batch_id)
        ),
        st.lists(messages, min_size=1, max_size=3).map(
            lambda ms: [
                Message(
                    msg_id=f"{m.msg_id}.{i}", dst=ms[0].dst, sender=m.sender,
                    payload=m.payload, payload_bytes=m.payload_bytes,
                    trace_id=m.trace_id,
                )
                for i, m in enumerate(ms)
            ]
        ),
        ids,
    ),
    "flexcast-msg": st.builds(
        FlexCastMsg,
        message=messages,
        history=deltas,
        seq=seqs,
        notified=notified,
    ),
    "flexcast-ack": st.builds(
        FlexCastAck,
        message=messages,
        history=deltas,
        from_group=groups,
        seq=seqs,
        notifier=st.none() | groups,
        notified=notified,
    ),
    "flexcast-notif": st.builds(
        FlexCastNotif, message=messages, history=deltas, from_group=groups, seq=seqs
    ),
}

instances = st.integers(0, 10**6)
ballots = st.builds(Ballot, st.integers(-1, 50), st.integers(-1, 4))
replicas = st.one_of(ids, st.text(max_size=12))
#: A log value: a turn of entries (any FlexCast envelope), or a plain JSON
#: command.
values = st.one_of(
    st.lists(
        st.builds(
            OrderedEnvelope,
            sender=st.one_of(ids, groups),
            envelope=st.one_of(*FLEXCAST_ENVELOPES.values()),
        ),
        min_size=1,
        max_size=3,
    ).map(lambda entries: Turn(tuple(entries))),
    json_values,
)

#: Wire tag -> every class a frame can carry, over any content: one per
#: ``_SCHEMA`` row.
ENVELOPES = {
    **FLEXCAST_ENVELOPES,
    "response": st.builds(ClientResponse, msg_id=ids, group=groups),
    "skeen-timestamp": st.builds(
        SkeenTimestamp, msg_id=ids, timestamp=instances, from_group=groups
    ),
    "tree-forward": st.builds(TreeForward, message=messages, sequence=instances),
    "node-hello": st.builds(
        NodeHello, node_id=ids, host=st.text(max_size=15), port=st.integers(0, 65535)
    ),
    "smr-command": st.builds(ClientCommand, payload=values),
    "smr-commit": st.builds(Commit, instance=instances, ballot=ballots),
    "smr-heartbeat": st.builds(Heartbeat, leader=replicas),
    "smr-catchup": st.builds(CatchupRequest, from_instance=instances, from_replica=replicas),
    "smr-catchup-reply": st.builds(
        CatchupReply, entries=st.lists(st.tuples(instances, values), max_size=3).map(tuple)
    ),
    "paxos-prepare": st.builds(Prepare, instance=instances, ballot=ballots),
    "paxos-promise": st.builds(
        Promise,
        instance=instances,
        ballot=ballots,
        accepted=st.lists(st.tuples(instances, ballots, values), max_size=3).map(tuple),
        from_replica=replicas,
    ),
    "paxos-accept": st.builds(Accept, instance=instances, ballot=ballots, value=values),
    "paxos-accepted": st.builds(
        Accepted, instance=instances, ballot=ballots, from_replica=replicas
    ),
    "paxos-nack": st.builds(
        Nack, instance=instances, ballot=ballots, promised=ballots, from_replica=replicas
    ),
}


class TestAnyContentRoundTrips:
    # Parametrised by the schema itself: a row without a strategy above is a
    # KeyError here, so every row is reached.
    @pytest.mark.parametrize("kind", [row[1] for row in codec._SCHEMA])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_envelope_round_trips(self, kind, data):
        envelope = data.draw(ENVELOPES[kind])
        sender = data.draw(st.one_of(ids, groups))
        assert envelope_to_row(envelope)[0] == kind
        decoded = round_trip(envelope, sender=sender)
        assert type(decoded) is type(envelope)
        assert decoded == envelope

    @pytest.mark.parametrize("kind", [row[1] for row in codec._SCHEMA])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_the_row_and_the_object_form_decode_alike(self, kind, data):
        # Frames and WALs written before rows hold every envelope as an
        # object of the same fields; they decode to the same envelope, and
        # a turn's old text to the same entries.
        envelope = data.draw(ENVELOPES[kind])
        body = encode_frame("node-1", envelope)[4:]
        assert decode_frame(object_frame(body)) == decode_frame(body) == ("node-1", envelope)
        for line in body.split(b"\n")[1:]:
            if line.startswith(b'["__oe__",'):
                assert turn_entries(turn_object(line)) == turn_entries(line)


#: The envelopes that carried an overlay ``epoch`` stamp, as written today.
ONCE_EPOCH_STAMPED = {
    "msg": FlexCastMsg(
        message=sample_message(), history=sample_delta(), seq=1,
        notified=frozenset({(2, 1)}),
    ),
    "ack": FlexCastAck(
        message=sample_message(), history=sample_delta(), from_group=1, seq=1
    ),
    "notif": FlexCastNotif(
        message=sample_message(), history=sample_delta(), from_group=1, seq=1
    ),
}


class TestOldEpochStamp:
    @pytest.mark.parametrize("kind", sorted(ONCE_EPOCH_STAMPED))
    def test_a_stamped_frame_decodes_to_the_unstamped_envelope(self, kind):
        envelope = ONCE_EPOCH_STAMPED[kind]
        body = old_frame(envelope)
        body["envelope"]["epoch"] = 0
        stamped = json.dumps(body).encode("utf-8")
        assert decode_frame(stamped) == ("node-1", envelope)


class TestOldSnapshotDeltas:
    """WALs hold FlexCast envelopes whose delta was written as a packed
    ``snapshot`` plus a suffix; replaying them must read every entry."""

    @settings(max_examples=40, deadline=None)
    @given(packed=deltas, suffix=deltas, last_delivered=st.none() | ids)
    def test_a_packed_snapshot_reads_ahead_of_its_suffix(
        self, packed, suffix, last_delivered
    ):
        snapshot = {
            "ids": [mid for mid, _ in packed.vertices],
            "dsts": [sorted(dst) for _, dst in packed.vertices],
            "edges_a": [a for a, _ in packed.edges],
            "edges_b": [b for _, b in packed.edges],
            "last_delivered": last_delivered,
            "version": len(packed),
        }
        envelope = FlexCastAck(
            message=sample_message(), history=suffix, from_group=1, seq=1
        )
        decoded = decode_old_delta(
            envelope, last_delivered=last_delivered, snapshot=snapshot
        )
        assert decoded.history == HistoryDelta(
            packed.vertices + suffix.vertices, packed.edges + suffix.edges
        )


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
            FlexCastMsg(message=m, history=sample_delta(), seq=1),
            FlexCastAck(message=m, history=sample_delta(), from_group=1, seq=1),
            FlexCastNotif(message=m, history=sample_delta(), from_group=1, seq=1),
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


#: Frame bodies whose head is valid JSON of the wrong shape.
WRONG_SHAPE = {
    "response-without-msg_id": b'{"sender":"x","envelope":{"type":"response","group":1}}',
    "request-dst-a-number": (
        b'{"sender":"x","envelope":{"type":"request",'
        b'"message":{"msg_id":"m1","dst":5,"sender":"c"}}}'
    ),
    "head-a-list": b'["x",{"type":"response","msg_id":"m1","group":1}]',
    "envelope-a-list": b'{"sender":"x","envelope":["response","m1",1]}',
    "accept-ballot-of-one": (
        b'{"sender":"x","envelope":{"type":"paxos-accept","instance":1,"ballot":[1]}}\n"v"'
    ),
}
# A batch member is a row of 3 or 4 items or a message object; nothing else.
_CARRIER_WITH = (
    b'{"sender":"x","envelope":{"type":"flexcast-batch","message":{"msg_id":"b1",'
    b'"dst":[1],"sender":"c","members":[%s]}}}'
)
WRONG_SHAPE.update({
    "batch-member-row-of-two": _CARRIER_WITH % b'["m1",null]',
    "batch-member-row-of-five": _CARRIER_WITH % b'["m1",null,64,"t-1","extra"]',
    "batch-member-a-number": _CARRIER_WITH % b'7',
    "batch-member-a-string": _CARRIER_WITH % b'"m1"',
})
_ACCEPT = b'["x",["paxos-accept",1,[1,0]]]'
#: Frame bodies of the row form with the wrong shape: a tag no schema row
#: has, a row of the wrong length, a piece that is not an array, value lines
#: that do not fit the row.
WRONG_SHAPE.update({"row-" + name: body for name, body in {
    "unknown-tag": b'["x",["mystery",1]]',
    "response-of-one-field": b'["x",["response","m1"]]',
    "response-of-three-fields": b'["x",["response","m1",1,2]]',
    "envelope-an-object": b'["x",{"type":"response","msg_id":"m1","group":1}]',
    "envelope-empty": b'["x",[]]',
    "envelope-a-string": b'["x","response"]',
    "head-of-three": b'["x",["response","m1",1],"y"]',
    "head-of-one": b'[["response","m1",1]]',
    "message-an-object": b'["x",["request",{"msg_id":"m1","dst":[1],"sender":"c"}]]',
    "message-of-four": b'["x",["request",["m1",[1],"c",null]]]',
    "message-of-nine": b'["x",["request",["m1",[1],"c",null,64,false,null,[],0]]]',
    "delta-an-object": (
        b'["x",["flexcast-msg",["m1",[1],"c",null,64],{"vertices":[],"edges":[]},1,[]]]'
    ),
    "value-without-its-line": _ACCEPT,
    "two-lines-for-one-value": _ACCEPT + b'\n"v"\n"w"',
    "value-inline-and-on-a-line": b'["x",["paxos-accept",1,[1,0],"v"]]\n"w"',
    "one-line-for-two-values": b'["x",["smr-catchup-reply",[[1],[2]]]]\n"v"',
    "a-line-for-a-frame-without-values": b'["x",["smr-commit",1,[1,0]]]\n"v"',
    "turn-entry-of-one": _ACCEPT + b'\n["__oe__",["c"]]',
    "turn-entry-an-object": (
        _ACCEPT + b'\n["__oe__",["c",{"type":"response","msg_id":"m1","group":1}]]'
    ),
}.items()})


class TestErrors:
    def test_a_schema_row_must_name_every_constructor_field(self):
        # The decoders call the record positionally, in its field order.
        with pytest.raises(TypeError):
            codec._compile(ClientResponse, "response", "msg_id")
        with pytest.raises(TypeError):
            codec._compile(ClientResponse, "response", "msg_id", "group", "kind")
        encode, decode_row, decode_dict = codec._compile(ClientResponse, "r", "group", "msg_id")
        assert encode(ClientResponse("m1", 2)) == ["r", 2, "m1"]
        assert decode_row(["r", 2, "m1"]) == ClientResponse("m1", 2)
        assert decode_dict({"type": "r", "msg_id": "m1", "group": 2}) == ClientResponse("m1", 2)

    def test_unknown_envelope_type_rejected_on_encode(self):
        with pytest.raises(CodecError):
            encode_frame("n", object())

    def test_malformed_body_rejected_on_decode(self):
        with pytest.raises(CodecError):
            decode_frame(b"this is not json")

    def test_unknown_type_rejected_on_decode(self):
        body = json.dumps({"sender": "x", "envelope": {"type": "mystery"}}).encode()
        with pytest.raises(CodecError, match="mystery"):
            decode_frame(body)
        with pytest.raises(CodecError, match="mystery"):
            decode_frame(b'["x",["mystery"]]')

    def test_a_turn_entry_of_a_retired_type_is_unreadable(self):
        """A log entry whose type has no schema row — such as the replicated
        protocol timer, which no committed WAL holds — makes its turn
        unreadable, and WAL replay cuts the log there."""
        entry = {"__oe__": 1, "sender": "r1", "envelope": {"type": "retired", "index": 7}}
        for text in (json.dumps(entry).encode(), b'["__oe__",["r1",["retired",7]]]'):
            with pytest.raises(UnreadableValue) as caught:
                turn_entries(text)
            assert isinstance(caught.value.__cause__, CodecError)

    def test_length_prefix_matches_body(self):
        frame = encode_frame("n", ClientResponse(msg_id="m1", group=1))
        import struct

        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4

    @pytest.mark.parametrize("name", sorted(WRONG_SHAPE))
    def test_json_of_the_wrong_shape_is_a_codec_error(self, name):
        with pytest.raises(CodecError):
            decode_frame(WRONG_SHAPE[name])

    def test_json_nested_past_the_recursion_limit_is_a_codec_error(self):
        # The parser gives up with a RecursionError, not a ValueError.
        with pytest.raises(CodecError):
            decode_frame(b'{"sender":"x","envelope":' + b"[" * 100_000)

    @pytest.mark.parametrize("text", [
        b'{"__oe__":1,"sender":"c"}',                        # no envelope
        b'{"__oe__":1,"sender":"c","envelope":[]}',          # envelope a list
        b'{"__oe__":1,"sender":"c","envelope":{"type":"request","message":{"dst":[1]}}}',
        b'[{"__oe__":1,"sender":"c","envelope":{"type":"response"}}]',
        b'["__oe__",["c"]]',                                  # an entry of one
        b'["__oe__",["c",["response","m1"]]]',               # a row too short
        b'["__oe__",["c",{"type":"response","msg_id":"m1","group":1}]]',
        b'["__oe__",["c",["request",["m1",[1],"c"]]]]',      # a message too short
    ])
    def test_a_turn_of_the_wrong_shape_is_unreadable(self, text):
        with pytest.raises(UnreadableValue):
            turn_entries(text)

    def test_a_server_closes_the_connection_and_keeps_serving(self):
        frames = []

        class Server(FrameServer):
            def handle_frame(self, sender, envelope):
                frames.append(envelope)

        bad = WRONG_SHAPE["response-without-msg_id"]
        good = ClientResponse(msg_id="m1", group=1)

        async def scenario():
            unhandled = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: unhandled.append(context))
            server = Server()
            host, port = await server.start()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(len(bad).to_bytes(4, "big") + bad + encode_frame("x", good))
                await writer.drain()
                closed = await asyncio.wait_for(reader.read(), timeout=5.0)
                writer.close()
                _, again = await asyncio.open_connection(host, port)
                again.write(encode_frame("x", good))
                await again.drain()
                again.close()
                # Served, then the handler sees the second peer go away.
                for _ in range(200):
                    if frames and not server._conn_writers:
                        break
                    await asyncio.sleep(0.01)
            finally:
                await server.stop()
            return closed, unhandled

        closed, unhandled = asyncio.run(scenario())
        # The frame after the bad one on the first connection is never read.
        assert closed == b"" and frames == [good] and unhandled == []

    def test_no_frame_of_the_wrong_shape_reaches_handle_frame(self):
        frames = []

        class Server(FrameServer):
            def handle_frame(self, sender, envelope):
                frames.append(envelope)

        good = encode_frame("x", ClientResponse(msg_id="m1", group=1))

        async def scenario():
            server = Server()
            host, port = await server.start()
            closed = []
            try:
                for body in WRONG_SHAPE.values():
                    reader, writer = await asyncio.open_connection(host, port)
                    writer.write(len(body).to_bytes(4, "big") + body + good)
                    await writer.drain()
                    closed.append(await asyncio.wait_for(reader.read(), timeout=5.0))
                    writer.close()
                    await writer.wait_closed()
            finally:
                await server.stop()
            return closed

        # Each connection closes at its bad frame; the good one after it is
        # never read.
        assert asyncio.run(scenario()) == [b""] * len(WRONG_SHAPE) and frames == []

    @pytest.mark.parametrize("kind", ["frame", "http"])
    def test_a_peer_that_resets_mid_frame_is_an_end_of_stream(self, kind):
        """A reset while the server waits for the rest of a frame, or of an
        HTTP request, ends that connection as end of stream does: nothing
        reaches the event loop's exception handler, and the server still
        answers."""
        frames = []

        class Server(FrameServer):
            def handle_frame(self, sender, envelope):
                frames.append(envelope)

        frame = encode_frame("x", ClientResponse(msg_id="m1", group=1))

        async def scenario():
            unhandled = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: unhandled.append(context))
            server = Server()
            host, port = await server.start()
            try:
                _, writer = await asyncio.open_connection(host, port)
                writer.write(frame[: len(frame) // 2] if kind == "frame" else b"GET /rea")
                await writer.drain()
                for _ in range(200):  # the server holds the connection
                    if server._conn_writers:
                        break
                    await asyncio.sleep(0.01)
                await asyncio.sleep(0.05)  # ... and waits for the rest
                # Linger on, timeout 0: close sends RST, not FIN.
                writer.get_extra_info("socket").setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
                writer.close()
                for _ in range(200):
                    if not server._conn_writers:
                        break
                    await asyncio.sleep(0.01)
                ready = await _http_get(host, port, "/ready")
            finally:
                await server.stop()
            return unhandled, ready

        unhandled, ready = asyncio.run(scenario())
        assert unhandled == [] and frames == []
        assert ready == (200, b"ready\n")


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
        assert envelope_to_row(commit) == ["smr-commit", 7, [2, 1]]

    def test_plain_values_pass_through(self):
        # Tests submit plain JSON-able commands; they must not be wrapped.
        # (In the row a log value is its JSON text, to be spliced in.)
        from repro.smr.multipaxos import ClientCommand
        from repro.smr.paxos import Accept, Ballot

        assert envelope_to_row(ClientCommand(payload="cmd-a")) == ["smr-command", b'"cmd-a"']
        accept = Accept(instance=0, ballot=Ballot(0, 0), value="cmd-a")
        assert envelope_to_row(accept) == ["paxos-accept", 0, [0, 0], b'"cmd-a"']
        assert round_trip(accept) == accept
        # Nor is an array mistaken for a turn, not even one of entry rows:
        # a turn is marked by its first item.
        for plain in ([], [1, 2], ["c", ["response", "m1", 1]], [["c", ["response", "m1", 1]]]):
            accept = Accept(instance=0, ballot=Ballot(0, 0), value=plain)
            assert round_trip(accept).value == plain

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
        assert envelope_to_row(accepted) == ["paxos-accepted", 1, [2, 1], "group-0-replica-2"]
        nack = Nack(instance=1, ballot=ballot, promised=Ballot(3, 0),
                    from_replica="group-0-replica-2")
        assert round_trip(nack) == nack
