"""Golden wire corpus: every registered frame, byte for byte.

``data/wire_golden.tsv`` holds one ``name<TAB>frame body`` line per sample
below.  It was first written by the commit *before* the codec became a
registry, so passing here meant old and new peers — and old and new WAL
files, whose log entries are the same envelopes — read each other's bytes.  The
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

The ``flexcast-msg`` and ``flexcast-ack`` lines, and every frame nesting an
ack, were rewritten when a notified entry became a ``(group, notifier)``
pair and an ack gained ``notifier`` (``null`` for a destination's own ack);
the timer line went with the replicated protocol timer.
``data/wire_golden_bare_notified.tsv`` keeps the two old lines, decode-only.

The ``flexcast-batch`` and ``flexcast-msg-batch-carrier`` lines were
rewritten when a batch member that shares its carrier's destinations and
sender became a row ``[msg_id, payload, payload_bytes]`` (and ``trace_id``
when set) instead of an object of its own: the carrier ships its destination
set and sender once, as the simulator's ``size_bytes`` always charged it.
:data:`CARRIER`'s second member has a sender of its own, so it still travels
as an object and the lines mix both forms.  ``paxos-accept-batch`` in the
turns corpus pins the same rows inside a log value.
``data/wire_golden_member_objects.tsv`` keeps the two old lines, decode-only.

The FlexCast frames, and every frame nesting one, were rewritten when
``msg``, ``ack`` and ``notif`` gained ``seq``, their number on the channel
from the sending group to the receiving one, and lost their piggybacked
timestamp proposals; a history delta lost its journal ``seq``, and the
``flexcast-ts-propose`` line went with its envelope.  A frame written before
decodes with ``seq`` 0, which no channel takes (:func:`_unnumbered`): every
older corpus here still decodes that way.

Every FlexCast line, and every frame nesting one, was rewritten when a
history delta lost ``last_delivered``, which no receiver read, and its
packed ``snapshot``: a first contact now ships the sender's live history as
the same ``vertices`` and ``edges`` every delta has, and the
``history-snapshot`` line went with it.  ``data/wire_golden_snapshots.tsv``
keeps the old ``flexcast-msg-cold`` and ``history-snapshot`` lines,
decode-only: the cold line reads as its snapshot's entries ahead of its
suffix, the content of today's ``flexcast-msg-cold`` (:data:`COLD`), and the
retired frame is refused.

The ``skeen-propose`` line moved to the same decode-only corpus when its
envelope went: nothing ever sent it (a Skeen client submits a plain
``request`` to every destination), and the frame is refused.

Every line of both corpora was rewritten when envelopes became rows: a
frame's head ``[sender, envelope]``, an envelope ``[tag, field, …]`` in its
schema row's order, a message ``[msg_id, dst, sender, payload,
payload_bytes]`` and what is set of ``is_flush``, ``trace_id`` and
``members`` after it, a delta ``[vertices, edges]``, and a turn
``["__oe__", [sender, envelope], …]`` whatever its length (a deliberate
format change: rows take about half the decoding time of objects).
``data/wire_golden_dict_form.tsv`` keeps the old lines of both corpora,
those of the turns corpus named ``turns:…``, decode-only: each decodes to
its sample, every turn to the same entries.

``python tests/runtime/test_wire_golden.py --write-corpus DIR`` writes both
corpora into ``DIR``, and CI diffs them against the committed ones.
Regenerate the committed ones only for a deliberate wire-format change; a
new envelope type adds a sample here and one line to the corpus.
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
from repro.smr.replica import OrderedEnvelope, Turn

CORPUS = os.path.join(os.path.dirname(__file__), "data", "wire_golden.tsv")
TURNS_CORPUS = os.path.join(os.path.dirname(__file__), "data", "wire_golden_turns.tsv")
INLINE_CORPUS = os.path.join(
    os.path.dirname(__file__), "data", "wire_golden_inline_values.tsv"
)
BARE_NOTIFIED_CORPUS = os.path.join(
    os.path.dirname(__file__), "data", "wire_golden_bare_notified.tsv"
)
MEMBER_OBJECTS_CORPUS = os.path.join(
    os.path.dirname(__file__), "data", "wire_golden_member_objects.tsv"
)
SNAPSHOTS_CORPUS = os.path.join(os.path.dirname(__file__), "data", "wire_golden_snapshots.tsv")
DICT_FORM_CORPUS = os.path.join(os.path.dirname(__file__), "data", "wire_golden_dict_form.tsv")
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
)
#: A first contact's delta: the content of the old ``flexcast-msg-cold``
#: line, a snapshot of m1..m3 then a suffix of m4 and its edge, as tuples.
COLD = msg.HistoryDelta(
    vertices=(
        ("m1", frozenset({1})), ("m2", frozenset({1, 3})), ("m3", frozenset({3})),
        ("m4", frozenset({1})),
    ),
    edges=(("m1", "m2"), ("m2", "m3"), ("m3", "m4")),
)
ENTRY = OrderedEnvelope(sender="client-7", envelope=msg.ClientRequest(message=PLAIN))
ENTRY_PEER = OrderedEnvelope(
    sender=2,
    envelope=msg.FlexCastAck(message=TRACED, history=WARM, from_group=2, seq=7),
)
ENTRY_BATCH = OrderedEnvelope(
    sender="client-7", envelope=msg.FlexCastBatch(message=CARRIER)
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
        seq=3,
        notified=frozenset({(4, 1), (2, 1)}),
    ),
    "flexcast-msg-defaults": msg.FlexCastMsg(
        message=PLAIN, history=msg.EMPTY_DELTA, seq=1
    ),
    "flexcast-msg-batch-carrier": msg.FlexCastMsg(message=CARRIER, history=WARM, seq=4),
    "flexcast-msg-cold": msg.FlexCastMsg(message=PLAIN, history=COLD, seq=5),
    "flexcast-ack": msg.FlexCastAck(
        message=PLAIN,
        history=WARM,
        from_group=1,
        seq=6,
        notifier=0,
        notified=frozenset({(2, 1), (4, 1)}),
    ),
    "flexcast-notif": msg.FlexCastNotif(
        message=TRACED, history=WARM, from_group=1, seq=2
    ),
    "skeen-timestamp": msg.SkeenTimestamp(msg_id="m42", timestamp=17, from_group=4),
    "tree-forward": msg.TreeForward(message=PLAIN, sequence=9),
    "node-hello": msg.NodeHello(node_id="soak-client-3", host="127.0.0.1", port=45123),
    "smr-command-oe": ClientCommand(payload=ORDERED),
    "smr-command-plain": ClientCommand(payload="cmd-a"),
    "smr-commit": Commit(instance=7, ballot=Ballot(2, 1)),
    "smr-heartbeat": Heartbeat(leader="group-0-replica-0"),
    "smr-catchup": CatchupRequest(from_instance=3, from_replica="group-0-replica-2"),
    "smr-catchup-reply": CatchupReply(entries=((3, ORDERED), (4, "cmd-b"))),
    "smr-catchup-reply-empty": CatchupReply(entries=()),
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
    "paxos-accept-batch": Accept(
        instance=6, ballot=Ballot(2, 1), value=Turn((ENTRY_BATCH, ENTRY_PEER))
    ),
}


#: ``flexcast-msg-defaults`` as written while envelopes carried an epoch.
EPOCH_STAMPED = (
    '{"sender":"group-0-replica-1","envelope":{"type":"flexcast-msg",'
    '"message":{"msg_id":"m42","dst":[1,3],"sender":"client-7",'
    '"payload":{"op":"new_order","qty":[1,2]},"payload_bytes":320,"is_flush":false},'
    '"history":{"vertices":[],"edges":[],"last_delivered":null,"seq":null},'
    '"notified":[],"epoch":0,"ts_proposals":[]}}'
)


def _rebuilt(value, envelope=lambda envelope: envelope):
    """``value`` with ``envelope`` applied to each FlexCast envelope in it,
    log values included, and every turn rebuilt from its entries: a turn
    compares by text, and one rebuilt has today's."""
    replace = dataclasses.replace
    if isinstance(value, (msg.FlexCastMsg, msg.FlexCastAck, msg.FlexCastNotif)):
        return envelope(value)
    if isinstance(value, Turn):
        return Turn(tuple(
            replace(entry, envelope=_rebuilt(entry.envelope, envelope))
            for entry in value.entries
        ))
    if isinstance(value, ClientCommand):
        return replace(value, payload=_rebuilt(value.payload, envelope))
    if isinstance(value, Accept):
        return replace(value, value=_rebuilt(value.value, envelope))
    if isinstance(value, CatchupReply):
        return replace(
            value, entries=tuple((i, _rebuilt(v, envelope)) for i, v in value.entries)
        )
    if isinstance(value, Promise):
        return replace(
            value,
            accepted=tuple((i, b, _rebuilt(v, envelope)) for i, b, v in value.accepted),
        )
    return value


def _unnumbered(value):
    """``value`` as decoded from a frame written before envelopes were
    numbered: each FlexCast envelope in it, log values included, at seq 0."""
    return _rebuilt(value, lambda envelope: dataclasses.replace(envelope, seq=0))


def _corpus(path=CORPUS):
    """name -> frame body; the tabs after the first stand for a frame's newlines."""
    with open(path, "r", encoding="utf-8") as handle:
        rows = (line.rstrip("\n").split("\t") for line in handle)
        return {name: "\n".join(lines) for name, *lines in rows}


def test_corpus_and_samples_name_the_same_frames():
    assert sorted(_corpus()) == sorted(SAMPLES)
    assert sorted(_corpus(TURNS_CORPUS)) == sorted(TURN_SAMPLES)
    assert sorted(_corpus(DICT_FORM_CORPUS)) == sorted(
        [*SAMPLES, *(f"turns:{name}" for name in TURN_SAMPLES)])


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
    # Turns compare by text: each value inside the old JSON, read and written
    # again, is today's value text.
    assert b"\n" not in body and decode_frame(body) == (SENDER, _unnumbered(sample))


@pytest.mark.parametrize("name", sorted(_corpus(BARE_NOTIFIED_CORPUS)))
def test_a_frame_with_bare_notified_group_ids_still_decodes(name):
    """The ``flexcast-msg`` and ``flexcast-ack`` lines as written before a
    notified entry named its notifier: each group reads as ``(group, None)``
    and the ack, which has no ``notifier`` key, as a destination's own."""
    body = _corpus(BARE_NOTIFIED_CORPUS)[name].encode("utf-8")
    expected = dataclasses.replace(
        SAMPLES[name], notified=frozenset({(2, None), (4, None)}), seq=0
    )
    if name == "flexcast-ack":
        expected = dataclasses.replace(expected, notifier=None)
    assert decode_frame(body) == (SENDER, expected)


@pytest.mark.parametrize("name", sorted(_corpus(MEMBER_OBJECTS_CORPUS)))
def test_a_frame_with_batch_members_as_objects_still_decodes(name):
    """The two carrier lines as written before members became rows: every
    member an object with its own ``dst`` and ``sender``."""
    body = _corpus(MEMBER_OBJECTS_CORPUS)[name].encode("utf-8")
    assert decode_frame(body) == (SENDER, _unnumbered(SAMPLES[name]))


def test_a_cold_snapshot_delta_still_decodes_as_plain_tuples():
    body = _corpus(SNAPSHOTS_CORPUS)["flexcast-msg-cold"].encode("utf-8")
    assert decode_frame(body) == (SENDER, SAMPLES["flexcast-msg-cold"])


def test_the_retired_history_snapshot_frame_is_refused():
    body = _corpus(SNAPSHOTS_CORPUS)["history-snapshot"].encode("utf-8")
    with pytest.raises(codec.CodecError, match="history-snapshot"):
        decode_frame(body)


def test_the_retired_skeen_propose_frame_is_refused():
    body = _corpus(SNAPSHOTS_CORPUS)["skeen-propose"].encode("utf-8")
    with pytest.raises(codec.CodecError, match="skeen-propose"):
        decode_frame(body)


@pytest.mark.parametrize("name", sorted(_corpus(DICT_FORM_CORPUS)))
def test_a_frame_written_before_rows_still_decodes(name):
    """Both corpora as written while envelopes, messages, deltas and turn
    entries were objects: every frame decodes to its sample, and every turn
    in it, which keeps its old text, to the sample's entries."""
    body = _corpus(DICT_FORM_CORPUS)[name].encode("utf-8")
    sample = TURN_SAMPLES[name[6:]] if name.startswith("turns:") else SAMPLES[name]
    sender, envelope = decode_frame(body)
    assert (sender, _rebuilt(envelope)) == (SENDER, sample)
    assert encode_frame(sender, sample) == encode_frame(SENDER, _rebuilt(envelope))


def test_a_frame_with_an_epoch_stamp_still_decodes():
    body = EPOCH_STAMPED.encode("utf-8")
    expected = _unnumbered(SAMPLES["flexcast-msg-defaults"])
    assert decode_frame(body) == (SENDER, expected)


def test_a_turn_is_an_array_of_entry_rows_after_its_marker():
    marker, one = json.loads(ORDERED.text)
    assert marker == "__oe__" and one == [ENTRY.sender, codec.envelope_to_row(ENTRY.envelope)]
    assert codec._value_from_wire(json.loads(ORDERED.text)) == ORDERED
    assert json.loads(SEVERAL.text) == ["__oe__", one, json.loads(ORDERED_PEER.text)[1], one]
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


def write_corpus(directory):
    """Write both corpora, as this commit encodes the samples, into
    ``directory``."""
    os.makedirs(directory, exist_ok=True)
    for corpus_path, samples in ((CORPUS, SAMPLES), (TURNS_CORPUS, TURN_SAMPLES)):
        with open(os.path.join(directory, os.path.basename(corpus_path)), "w",
                  encoding="utf-8") as out:
            for sample_name, envelope in samples.items():
                body = encode_frame(SENDER, envelope)[4:].decode("utf-8")
                out.write(sample_name + "\t" + body.replace("\n", "\t") + "\n")


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=write_corpus.__doc__)
    parser.add_argument("--write-corpus", metavar="DIR", required=True)
    write_corpus(parser.parse_args().write_corpus)
