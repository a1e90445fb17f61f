"""Golden wire corpus: every registered frame, byte for byte.

``data/wire_golden.tsv`` holds one ``name<TAB>frame body`` line per sample
below.  It was written by the commit *before* the codec became a registry
(``PYTHONPATH=<parent checkout>/src python tests/runtime/test_wire_golden.py``),
so passing here means old and new peers — and old and new WAL files, whose
log entries are the same dictionaries — read each other's bytes.  The
``paxos-promise*``, ``paxos-accepted`` and ``smr-commit`` lines are the
exception: they were rewritten when phase 1 became once per leadership and
the value stopped riding in phase-2 replies (a deliberate format change; a
group's replicas upgrade together).

``data/wire_golden_turns.tsv`` is the second corpus, added when a log value
became the :class:`~repro.smr.replica.Turn` a replica received: the four
frames that carry a value, each with a value of *several* entries (an array
of the objects above).  A value of one entry is the object itself, which is
why no line of the first corpus changed.

The frames that carry a log value were rewritten in both corpora when the
value moved out of the frame's JSON onto a line of its own after it (a
deliberate format change: a value's text is produced once and spliced into
frames and WAL records, and a splice that kept the old bytes would have to
find the value's end inside JSON it has not parsed).  A corpus line holds
such a frame's lines tab-separated — our JSON holds no raw tab either.  Every
other line is byte-identical, and ``data/wire_golden_inline_values.tsv``
keeps the old lines of those frames: decode-only, since a new binary still
reads them (the reverse does not hold; a group's replicas upgrade together).

The FlexCast frames (and the turns carrying one) were rewritten once more
when envelopes lost their overlay ``epoch`` stamp; the key is all that went.
Frames written before carry ``"epoch":0``, which decode ignores —
:data:`EPOCH_STAMPED` pins one, and the inline corpus holds more.

Regenerate only for a deliberate wire-format change; a new envelope type adds
a sample here and one line to the corpus.
"""

import dataclasses
import json
import os
import struct
import sys

import pytest

from repro.core import message as msg
from repro.runtime import codec
from repro.runtime.codec import decode_frame, encode_frame
from repro.smr import multipaxos, paxos
from repro.smr.multipaxos import (
    CatchupReply,
    CatchupRequest,
    ClientCommand,
    Commit,
    Heartbeat,
)
from repro.smr.paxos import Accept, Accepted, Ballot, Nack, Prepare, Promise
from repro.smr.replica import OrderedEnvelope, TimerFired, Turn

CORPUS = os.path.join(os.path.dirname(__file__), "data", "wire_golden.tsv")
TURNS_CORPUS = os.path.join(os.path.dirname(__file__), "data", "wire_golden_turns.tsv")
INLINE_CORPUS = os.path.join(
    os.path.dirname(__file__), "data", "wire_golden_inline_values.tsv"
)
SENDER = "group-0-replica-1"

PLAIN = msg.Message(
    msg_id="m42",
    dst=frozenset({3, 1}),
    sender="client-7",
    payload={"op": "new_order", "qty": [1, 2]},
    payload_bytes=320,
)
TRACED = msg.Message(msg_id="m43", dst=frozenset({1}), sender="c", trace_id="t-7f")
FLUSH = msg.Message(msg_id="f1", dst=frozenset({0, 1}), is_flush=True)
CARRIER = msg.Message.batch_of(
    [
        PLAIN,
        msg.Message(
            msg_id="m44", dst=frozenset({1, 3}), sender="c", payload="é", trace_id="t-80"
        ),
    ],
    batch_id="b9",
)
WARM = msg.HistoryDelta(
    vertices=(("m1", frozenset({1})), ("m2", frozenset({3, 1}))),
    edges=(("m1", "m2"),),
    last_delivered="m2",
    seq=4,
)
SNAPSHOT = msg.HistorySnapshot(
    ids=("m1", "m2", "m3"),
    dsts=(frozenset({1}), frozenset({1, 3}), frozenset({3})),
    edges_a=("m1", "m2"),
    edges_b=("m2", "m3"),
    last_delivered="m3",
    version=5,
)
COLD = msg.HistoryDelta(
    vertices=(("m4", frozenset({1})),),
    edges=(("m3", "m4"),),
    last_delivered="m4",
    seq=7,
    snapshot=SNAPSHOT,
)
ENTRY = OrderedEnvelope(sender="client-7", envelope=msg.ClientRequest(message=PLAIN))
ENTRY_PEER = OrderedEnvelope(
    sender=2,
    envelope=msg.FlexCastAck(message=TRACED, history=WARM, from_group=2),
)
# A log value is a Turn; a turn of one entry is that entry's bytes.
ORDERED = Turn((ENTRY,))
ORDERED_PEER = Turn((ENTRY_PEER,))
SEVERAL = Turn((ENTRY, ENTRY_PEER, ENTRY))

SAMPLES = {
    "request": msg.ClientRequest(message=PLAIN),
    "request-traced": msg.ClientRequest(message=TRACED),
    "request-flush": msg.ClientRequest(message=FLUSH),
    "flexcast-batch": msg.FlexCastBatch(message=CARRIER),
    "response": msg.ClientResponse(msg_id="m42", group=3),
    "flexcast-msg": msg.FlexCastMsg(
        message=PLAIN,
        history=WARM,
        notified=frozenset({4, 2}),
        ts_proposals=((1, 5), (3, 9)),
    ),
    "flexcast-msg-defaults": msg.FlexCastMsg(message=PLAIN, history=msg.EMPTY_DELTA),
    "flexcast-msg-batch-carrier": msg.FlexCastMsg(message=CARRIER, history=WARM),
    "flexcast-msg-cold": msg.FlexCastMsg(message=PLAIN, history=COLD),
    "flexcast-ack": msg.FlexCastAck(
        message=PLAIN,
        history=WARM,
        from_group=1,
        notified=frozenset({2, 4}),
        ts_proposals=((3, 9),),
    ),
    "history-snapshot": msg.HistorySnapshotFrame(group=3, delta=COLD),
    "flexcast-ts-propose": msg.FlexCastTsPropose(message=PLAIN, timestamp=23, from_group=3),
    "flexcast-notif": msg.FlexCastNotif(message=TRACED, history=WARM, from_group=1),
    "skeen-timestamp": msg.SkeenTimestamp(msg_id="m42", timestamp=17, from_group=4),
    "skeen-propose": msg.SkeenPropose(message=PLAIN),
    "tree-forward": msg.TreeForward(message=PLAIN, sequence=9),
    "node-hello": msg.NodeHello(node_id="soak-client-3", host="127.0.0.1", port=45123),
    "smr-command-oe": ClientCommand(payload=ORDERED),
    "smr-command-plain": ClientCommand(payload="cmd-a"),
    "smr-commit": Commit(instance=7, ballot=Ballot(2, 1)),
    "smr-heartbeat": Heartbeat(leader="group-0-replica-0"),
    "smr-catchup": CatchupRequest(from_instance=3, from_replica="group-0-replica-2"),
    "smr-catchup-reply": CatchupReply(entries=((3, ORDERED), (4, "cmd-b"))),
    "smr-catchup-reply-empty": CatchupReply(entries=()),
    "smr-timer": TimerFired(index=7),
    "paxos-prepare": Prepare(instance=5, ballot=Ballot(2, 1)),
    "paxos-promise": Promise(
        instance=5,
        ballot=Ballot(2, 1),
        accepted=(
            (5, Ballot(1, 0), ORDERED_PEER),
            (7, Ballot(0, 2), {"k": [1, None]}),
        ),
        from_replica="group-0-replica-2",
    ),
    "paxos-promise-fresh": Promise(
        instance=6, ballot=Ballot(2, 1), accepted=(), from_replica="group-0-replica-2"
    ),
    "paxos-accept": Accept(instance=5, ballot=Ballot(2, 1), value=ORDERED),
    "paxos-accepted": Accepted(
        instance=5, ballot=Ballot(2, 1), from_replica="group-0-replica-0"
    ),
    "paxos-nack": Nack(
        instance=5,
        ballot=Ballot(1, 0),
        promised=Ballot(2, 1),
        from_replica="group-0-replica-2",
    ),
}

#: The frames that carry a log value, each with a turn of several entries.
TURN_SAMPLES = {
    "smr-command": ClientCommand(payload=SEVERAL),
    "smr-catchup-reply": CatchupReply(entries=((3, SEVERAL), (4, ORDERED), (5, "cmd-b"))),
    "paxos-promise": Promise(
        instance=5,
        ballot=Ballot(2, 1),
        accepted=((5, Ballot(1, 0), SEVERAL), (7, Ballot(0, 2), ORDERED_PEER)),
        from_replica="group-0-replica-2",
    ),
    "paxos-accept": Accept(instance=5, ballot=Ballot(2, 1), value=SEVERAL),
}


#: ``flexcast-msg-defaults`` as written while envelopes carried an epoch.
EPOCH_STAMPED = (
    '{"sender":"group-0-replica-1","envelope":{"type":"flexcast-msg",'
    '"message":{"msg_id":"m42","dst":[1,3],"sender":"client-7",'
    '"payload":{"op":"new_order","qty":[1,2]},"payload_bytes":320,"is_flush":false},'
    '"history":{"vertices":[],"edges":[],"last_delivered":null,"seq":null},'
    '"notified":[],"epoch":0,"ts_proposals":[]}}'
)


def _corpus(path=CORPUS):
    """name -> frame body; the tabs after the first stand for a frame's newlines."""
    with open(path, "r", encoding="utf-8") as handle:
        rows = (line.rstrip("\n").split("\t") for line in handle)
        return {name: "\n".join(lines) for name, *lines in rows}


def test_corpus_and_samples_name_the_same_frames():
    assert sorted(_corpus()) == sorted(SAMPLES)
    assert sorted(_corpus(TURNS_CORPUS)) == sorted(TURN_SAMPLES)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_frame_is_byte_identical_and_round_trips(name):
    body = _corpus()[name].encode("utf-8")
    assert encode_frame(SENDER, SAMPLES[name]) == struct.pack(">I", len(body)) + body
    assert decode_frame(body) == (SENDER, SAMPLES[name])


@pytest.mark.parametrize("name", sorted(TURN_SAMPLES))
def test_several_entry_frame_is_byte_identical_and_round_trips(name):
    body = _corpus(TURNS_CORPUS)[name].encode("utf-8")
    assert encode_frame(SENDER, TURN_SAMPLES[name]) == struct.pack(">I", len(body)) + body
    assert decode_frame(body) == (SENDER, TURN_SAMPLES[name])


@pytest.mark.parametrize("name", sorted(_corpus(INLINE_CORPUS)))
def test_a_frame_with_its_value_inside_the_json_still_decodes(name):
    body = _corpus(INLINE_CORPUS)[name].encode("utf-8")
    sample = TURN_SAMPLES[name[6:]] if name.startswith("turns:") else SAMPLES[name]
    assert b"\n" not in body and decode_frame(body) == (SENDER, sample)
    # The value texts of today's frame are the ones inside the old, moved
    # and without the epoch stamp.
    today = encode_frame(SENDER, sample)[4:].split(b"\n")
    unstamped = body.replace(b',"epoch":0', b"")
    assert all(line in unstamped for line in today[1:])


def test_a_frame_with_an_epoch_stamp_still_decodes():
    body = EPOCH_STAMPED.encode("utf-8")
    assert decode_frame(body) == (SENDER, SAMPLES["flexcast-msg-defaults"])
    assert encode_frame(SENDER, SAMPLES["flexcast-msg-defaults"])[4:] == body.replace(
        b',"epoch":0', b""
    )


def test_several_entries_are_an_array_of_the_one_entry_object():
    one = json.loads(ORDERED.text)
    assert one["__oe__"] == 1 and codec._value_from_wire(one) == ORDERED
    assert json.loads(SEVERAL.text) == [one, json.loads(ORDERED_PEER.text), one]
    assert codec._value_from_wire(SEVERAL.text) == SEVERAL
    # Plain commands (multi-Paxos driven directly), lists included, are plain JSON.
    for plain in ("cmd", [], [1, 2], [{"k": 1}], {"k": [1, None]}):
        assert codec._value_text(plain) == json.dumps(plain, separators=(",", ":")).encode()
        assert codec._value_from_wire(plain) is plain
        assert codec._value_from_wire(codec._value_text(plain)) == plain


def _subclasses(cls):
    for sub in cls.__subclasses__():
        # ``@dataclass(slots=True)`` builds a second class and leaves the
        # first one behind until collected; only the bound name counts.
        if getattr(sys.modules[sub.__module__], sub.__name__, None) is sub:
            yield sub
        yield from _subclasses(sub)


def test_every_wire_class_has_a_schema_row_and_a_golden_sample():
    # A new envelope without a wire form must fail here, in tier-1, not as a
    # CodecError in a running cluster.
    smr_messages = {
        cls
        for module in (multipaxos, paxos)
        for cls in vars(module).values()
        if isinstance(cls, type)
        and dataclasses.is_dataclass(cls)
        and cls.__module__ == module.__name__
        and cls is not Ballot  # a value inside frames, not a frame
    }
    wire_classes = set(_subclasses(msg.Envelope)) | {msg.NodeHello} | smr_messages
    registered = {row[0] for row in codec._SCHEMA}
    assert wire_classes - registered == set()
    assert registered - wire_classes == set()
    assert {type(envelope) for envelope in SAMPLES.values()} == registered
    tags = [row[1] for row in codec._SCHEMA]
    assert len(set(tags)) == len(tags)


if __name__ == "__main__":
    os.makedirs(os.path.dirname(CORPUS), exist_ok=True)
    for corpus_path, samples in ((CORPUS, SAMPLES), (TURNS_CORPUS, TURN_SAMPLES)):
        with open(corpus_path, "w", encoding="utf-8") as out:
            for sample_name, envelope in samples.items():
                body = encode_frame(SENDER, envelope)[4:].decode("utf-8")
                out.write(sample_name + "\t" + body.replace("\n", "\t") + "\n")
