"""Wire codec for the asyncio runtime.

Every frame is length-prefixed JSON.  ``_SCHEMA`` holds one row per envelope
class and is the only description of the wire classes: at import it is
compiled, row by row, into one generated encoder and one generated decoder
(:func:`_compile`), which is all a frame runs — no walk over the row per
field.  :class:`~repro.core.message.Message` and history deltas are the
hand-written leaves inside.  The four frames that carry log values hold them
*after* that JSON, one line of value text each (``_VALUE_FRAMES``): a value
is serialised where it is first needed, and from there on frames and WAL
records are built around its bytes.  All of the text goes through the
process's one JSON encoder and one decoder (:mod:`repro.jsontext`).  JSON
keeps the frames debuggable with ``tcpdump``/``wireshark`` and avoids
pickling code objects across trust boundaries; the simulator's size model
(``size_bytes``) stays separate so simulated byte counts do not depend on
JSON verbosity.

A batch carrier writes its destination set and sender once, as the size
model charges it: each member that shares them (and is neither a flush nor
a carrier) is a row ``[msg_id, payload, payload_bytes]``, with ``trace_id``
fourth only when set, decoded into a message that shares the carrier's
``dst`` and ``sender`` objects.  Any other member is a message object in
full.  The decoder takes either form per member, so frames and WAL records
written while every member was an object still read.

A frame that is not UTF-8, not JSON, or JSON of the wrong shape is a
:class:`CodecError`, whatever part of it is wrong.
"""

from __future__ import annotations

import dataclasses
import struct
import sys
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core import message as msg
from ..jsontext import json_text, json_value
from ..smr import multipaxos as smr, paxos
from ..smr.replica import OrderedEnvelope, Turn

#: 4-byte big-endian length prefix.
_LENGTH = struct.Struct(">I")

#: Maximum accepted frame size (16 MiB) — guards against corrupted prefixes.
MAX_FRAME_BYTES = 16 * 1024 * 1024


class CodecError(ValueError):
    """Raised when a frame cannot be encoded or decoded."""


#: What wire-form data of the wrong shape raises on its way into objects: not
#: UTF-8, not JSON, nested too deep, a key missing, a type wrong.
_MALFORMED = (ValueError, LookupError, TypeError, AttributeError, RecursionError)


# --------------------------------------------------------------- message pieces
def _message_to_dict(m: msg.Message) -> Dict[str, Any]:
    d = {
        "msg_id": m.msg_id,
        "dst": sorted(m.dst),
        "sender": m.sender,
        "payload": m.payload,
        "payload_bytes": m.payload_bytes,
        "is_flush": m.is_flush,
    }
    if m.trace_id is not None:
        # Observability correlation id (repro.obs): emitted only when set,
        # so untraced frames keep their historical byte-for-byte shape.
        d["trace_id"] = m.trace_id
    if m.members:
        # Batch carrier: one level of member messages (batch_of forbids
        # nesting, so the recursion is bounded at depth one).  A member that
        # shares the carrier's destinations and sender is a row of what it
        # adds; any other member travels as an object of its own.
        dst, sender = m.dst, m.sender
        rows = d["members"] = []
        for member in m.members:
            if (member.dst == dst and member.sender == sender
                    and not member.is_flush and not member.members):
                row = [member.msg_id, member.payload, member.payload_bytes]
                if member.trace_id is not None:
                    row.append(member.trace_id)
                rows.append(row)
            else:
                rows.append(_message_to_dict(member))
    return d


def _message_from_dict(d: Dict[str, Any]) -> msg.Message:
    get = d.get
    dst, sender, members = frozenset(d["dst"]), d["sender"], get("members")
    return msg.Message(
        d["msg_id"],
        dst,
        sender,
        get("payload"),
        get("payload_bytes", 64),
        get("is_flush", False),
        get("trace_id"),
        tuple([_member_from_wire(item, dst, sender) for item in members])
        if members else (),
    )


def _member_from_wire(item: Any, dst: frozenset, sender: Any) -> msg.Message:
    """A carrier's member: a row ``[msg_id, payload, payload_bytes]`` (and
    ``trace_id`` when set) that takes the carrier's ``dst`` and ``sender``,
    or a message object in full.  A row of any other length does not unpack."""
    if type(item) is not list:
        return _message_from_dict(item)
    if len(item) == 3:
        msg_id, payload, payload_bytes = item
        return msg.Message(msg_id, dst, sender, payload, payload_bytes)
    msg_id, payload, payload_bytes, trace_id = item
    return msg.Message(msg_id, dst, sender, payload, payload_bytes, False, trace_id)


def _delta_to_dict(delta: msg.HistoryDelta) -> Dict[str, Any]:
    return {
        "vertices": [[mid, sorted(dst)] for mid, dst in delta.vertices],
        "edges": [list(edge) for edge in delta.edges],
    }


def _delta_from_dict(d: Dict[str, Any]) -> msg.HistoryDelta:
    # Delta vertex/edge ids recur across every index and pending-set on the
    # receiving group; interning at the decode boundary makes the in-memory
    # copies pointer-identical (see Message.msg_id).  Keys of older deltas
    # are ignored: a journal ``seq`` and a ``last_delivered``.  A first
    # contact written as a packed ``snapshot`` (parallel ``ids``/``dsts`` and
    # ``edges_a``/``edges_b`` arrays) reads as those entries ahead of the
    # delta's own.
    intern = sys.intern
    get = d.get
    vertices, edges, snapshot = get("vertices"), get("edges"), get("snapshot")
    if snapshot is not None:
        sget = snapshot.get
        vertices = [*zip(sget("ids", ()), sget("dsts", ())), *(vertices or ())]
        edges = [*zip(sget("edges_a", ()), sget("edges_b", ())), *(edges or ())]
    return msg.HistoryDelta(
        tuple([(intern(mid), frozenset(dst)) for mid, dst in vertices]) if vertices else (),
        tuple([(intern(a), intern(b)) for a, b in edges]) if edges else (),
    )


def _ballot_to_list(ballot: paxos.Ballot) -> list:
    return [ballot.round, ballot.proposer]


def _ballot_from_list(pair: Sequence[int]) -> paxos.Ballot:
    return paxos.Ballot(*pair)


# ------------------------------------------------------------------ the schema
_REQUIRED: Any = object()
_Converter = Optional[Callable[[Any], Any]]


def _field(
    attr: str, to_wire: _Converter = None, from_wire: _Converter = None,
    key: Optional[str] = None, default: Any = _REQUIRED,
) -> tuple:
    """One attribute of a wire class, read by both directions.

    A converter is ``None`` when the value is JSON-able as it stands (tuples
    already travel as arrays).  ``default`` is the *wire-form* value assumed
    when a frame lacks the key (frames older than the field); without one
    the key is required and its absence is a ``KeyError``.
    """
    return (attr, key or attr, to_wire, from_wire, default)


def _compile(
    cls: type, tag_key: str, tag: Any, *fields: Any
) -> Tuple[Callable[[Any], Dict[str, Any]], Callable[[Dict[str, Any]], Any]]:
    """One wire class's encoder and decoder, generated from its fields.

    As ``dataclasses`` generates ``__init__``, both are written out as source
    and compiled once: every key is a literal, every converter and default a
    name bound to its object, and the decoder calls the class itself with
    its arguments in the class's field order (a positional call into the
    record's compiled ``__new__`` costs about half a keyword one).  A frame
    then costs one dictionary display to build and one call to read.  A
    bare string names a field that travels as it stands; the fields listed
    must be every field the class's constructor takes.
    """
    namespace: Dict[str, Any] = {"cls": cls}
    items, raws = [f"{tag_key!r}: {tag!r}"], {}
    for spec in fields:
        attr, key, to_wire, from_wire, default = (
            _field(spec) if isinstance(spec, str) else spec
        )
        value, raw = f"obj.{attr}", f"data[{key!r}]"
        if to_wire is not None:
            namespace[f"to_{attr}"] = to_wire
            value = f"to_{attr}({value})"
        if default is not _REQUIRED:
            namespace[f"default_{attr}"] = default
            raw = f"data.get({key!r}, default_{attr})"
        if from_wire is not None:
            namespace[f"from_{attr}"] = from_wire
            raw = f"from_{attr}({raw})"
        items.append(f"{key!r}: {value}")
        raws[attr] = raw
    names = [f.name for f in dataclasses.fields(cls) if f.init]
    if sorted(names) != sorted(raws):
        raise TypeError(f"a row of {cls.__name__} names {sorted(raws)}, not {names}")
    args = [raws[name] for name in names]
    source = (
        f"def encode(obj):\n    return {{{', '.join(items)}}}\n"
        f"def decode(data):\n    return cls({', '.join(args)})\n"
    )
    exec(compile(source, f"<wire codec of {cls.__name__}>", "exec"), namespace)
    return namespace["encode"], namespace["decode"]


def envelope_to_dict(envelope: Any) -> Dict[str, Any]:
    """Encode any protocol envelope to its JSON-able wire dictionary.

    Dispatch is on the exact class: a subclass travels only under an entry
    of its own (``FlexCastBatch`` is not its base ``ClientRequest``).
    """
    encode = _ENCODERS.get(type(envelope))
    if encode is None:
        raise CodecError(f"cannot encode envelope of type {type(envelope).__name__}")
    return encode(envelope)


def envelope_from_dict(data: Dict[str, Any]) -> Any:
    """Decode an envelope from its JSON wire dictionary (inverse of above)."""
    decode = _DECODERS.get(data.get("type"))
    if decode is None:
        raise CodecError(f"cannot decode envelope type {data.get('type')!r}")
    return decode(data)


# SMR frames and the commit/acceptor WALs carry log *values*: the Turn a
# GroupReplica ordered, or plain JSON-able commands (tests driving multi-Paxos
# directly), which are plain JSON.  A turn of one entry is that entry's
# object — the bytes written when an entry was the value, so every older
# frame and WAL file reads as a turn of one — and several entries are an
# array of such objects.  An entry is marked ``"__oe__": 1`` rather than by
# ``type``: it is a value *inside* frames and records, never a frame of its
# own.
_entry_to_dict, _entry_from_dict = _compile(
    OrderedEnvelope, "__oe__", 1,
    "sender", _field("envelope", envelope_to_dict, envelope_from_dict),
)


def turn_text(entries: Sequence[OrderedEnvelope]) -> bytes:
    """Serialise a turn: the one place a log value becomes text."""
    wire = [_entry_to_dict(entry) for entry in entries]
    return json_text(wire[0] if len(wire) == 1 else wire)


def turn_entries(text: bytes) -> Tuple[OrderedEnvelope, ...]:
    """Parse a turn's text (inverse of above)."""
    try:
        return _value_from_wire(text).entries
    except _MALFORMED as exc:  # plain JSON, not JSON, or not an entry's shape
        raise smr.UnreadableValue(f"not a turn: {text[:64]!r}") from exc


def _value_text(value: Any) -> bytes:
    return value.text if type(value) is Turn else json_text(value)


def _value_from_wire(wire: Any) -> Any:
    """A value from its line of a frame (``bytes``, which a turn keeps as its
    text) or from its place inside the JSON of a frame older than that."""
    text = None
    if type(wire) is bytes:
        text, wire = wire, json_value(wire)
    objects = wire if isinstance(wire, list) else [wire]
    if objects and all(isinstance(o, dict) and o.get("__oe__") == 1 for o in objects):
        return Turn(tuple(map(_entry_from_dict, objects)), text)
    return wire


_MESSAGE = _field("message", _message_to_dict, _message_from_dict)
_HISTORY = _field("history", _delta_to_dict, _delta_from_dict)


def _notified_from_wire(items: List[Any]) -> frozenset:
    """``(group, notifier)`` pairs; a frame older than the pair lists bare
    group ids, read as ``(group, None)``."""
    return frozenset([(i, None) if type(i) is int else (i[0], i[1]) for i in items])


_NOTIFIED = _field(
    "notified",
    lambda pairs: sorted(pairs, key=lambda p: (p[0], -1 if p[1] is None else p[1])),
    _notified_from_wire,
    default=(),
)
#: A channel number; a FlexCast frame written before envelopes were numbered
#: reads as 0, which no channel takes (``FlexCastGroup._in_order``).
_SEQ = _field("seq", default=0)
_BALLOT = _field("ballot", _ballot_to_list, _ballot_from_list)
_VALUE = _field("value", _value_text, _value_from_wire)

#: ``(class, wire tag, *fields)`` for every class that can be a frame: adding
#: an envelope is one row.  Field order is wire order
#: (tests/runtime/test_wire_golden.py pins it byte for byte).  A key a row
#: does not name is ignored on decode: older FlexCast frames carry an
#: ``epoch`` and piggybacked timestamp proposals that no envelope has any
#: more.
_SCHEMA: Tuple[tuple, ...] = (
    (msg.ClientRequest, "request", _MESSAGE),
    (msg.FlexCastBatch, "flexcast-batch", _MESSAGE),
    (msg.ClientResponse, "response", "msg_id", "group"),
    (msg.FlexCastMsg, "flexcast-msg", _MESSAGE, _HISTORY, _SEQ, _NOTIFIED),
    (msg.FlexCastAck, "flexcast-ack",
     _MESSAGE, _HISTORY, "from_group", _SEQ, _field("notifier", default=None),
     _NOTIFIED),
    (msg.FlexCastNotif, "flexcast-notif", _MESSAGE, _HISTORY, "from_group", _SEQ),
    (msg.SkeenTimestamp, "skeen-timestamp", "msg_id", "timestamp", "from_group"),
    (msg.TreeForward, "tree-forward", _MESSAGE, "sequence"),
    (msg.NodeHello, "node-hello", "node_id", "host", "port"),
    # SMR / Paxos: the process runtime replicates each group over real TCP,
    # so the intra-group consensus traffic crosses the wire too.
    (smr.ClientCommand, "smr-command", _field("payload", _value_text, _value_from_wire)),
    (smr.Commit, "smr-commit", "instance", _BALLOT),
    (smr.Heartbeat, "smr-heartbeat", "leader"),
    (smr.CatchupRequest, "smr-catchup", "from_instance", "from_replica"),
    (smr.CatchupReply, "smr-catchup-reply",
     _field("entries",
            lambda entries: [[i, _value_text(v)] for i, v in entries],
            lambda entries: tuple((i, _value_from_wire(v)) for i, v in entries),
            default=())),
    (paxos.Prepare, "paxos-prepare", "instance", _BALLOT),
    (paxos.Promise, "paxos-promise",
     "instance", _BALLOT,
     _field("accepted",
            lambda entries: [
                [i, _ballot_to_list(b), _value_text(v)] for i, b, v in entries],
            lambda entries: tuple(
                (i, _ballot_from_list(b), _value_from_wire(v)) for i, b, v in entries)),
     "from_replica"),
    (paxos.Accept, "paxos-accept", "instance", _BALLOT, _VALUE),
    (paxos.Accepted, "paxos-accepted", "instance", _BALLOT, "from_replica"),
    (paxos.Nack, "paxos-nack",
     "instance", _BALLOT, _field("promised", _ballot_to_list, _ballot_from_list),
     "from_replica"),
)
_ENCODERS: Dict[type, Callable[[Any], Dict[str, Any]]] = {}
_DECODERS: Dict[str, Callable[[Dict[str, Any]], Any]] = {}
for _cls, _tag, *_fields in _SCHEMA:
    _ENCODERS[_cls], _DECODERS[_tag] = _compile(_cls, "type", _tag, *_fields)
del _cls, _tag, _fields

#: Wire tag -> key, for the frames that carry log values.  In the envelope's
#: dictionary a value is its text (``bytes``), alone or last in each row of a
#: list; on the wire the texts follow the JSON of everything else, a newline
#: before each (our JSON text holds no raw newline), so encoding splices them
#: in and decoding cuts them out, and neither parses a value to find where it
#: ends.  Frames older than this held the value inside the JSON and decode as
#: before.
_VALUE_FRAMES = {
    "smr-command": "payload", "paxos-accept": "value",
    "smr-catchup-reply": "entries", "paxos-promise": "accepted",
}


# --------------------------------------------------------------------- framing
def encode_frame(sender: Any, envelope: Any) -> bytes:
    """Encode one (sender, envelope) frame with its length prefix."""
    data = envelope_to_dict(envelope)
    texts: Any = ()
    key = _VALUE_FRAMES.get(data["type"])
    if key is not None:
        rows = data[key]
        if type(rows) is bytes:
            del data[key]
            texts = (rows,)
        else:
            data[key] = [row[:-1] for row in rows]
            texts = [row[-1] for row in rows]
    body = b"\n".join((json_text({"sender": sender, "envelope": data}), *texts))
    if len(body) > MAX_FRAME_BYTES:
        raise CodecError(f"frame of {len(body)} bytes exceeds the {MAX_FRAME_BYTES} limit")
    return _LENGTH.pack(len(body)) + body


def decode_frame(body: bytes) -> Tuple[Any, Any]:
    """Decode a frame body (without its length prefix) into (sender, envelope)."""
    head, newline, texts = body.partition(b"\n")
    try:
        data = json_value(head)
        envelope = data.get("envelope", {})
        if newline:
            key = _VALUE_FRAMES.get(envelope.get("type"))
            rows, lines = envelope.get(key), texts.split(b"\n")
            if key is None or len(lines) != (1 if rows is None else len(rows)):
                raise CodecError(f"{len(lines)} value lines do not fit the frame")
            envelope[key] = lines[0] if rows is None else [
                row + [line] for row, line in zip(rows, lines)
            ]
        return data.get("sender"), envelope_from_dict(envelope)
    except CodecError:
        raise
    except _MALFORMED as exc:  # the frame's JSON, or one of its value lines
        raise CodecError(f"malformed frame: {exc!r}") from exc


async def read_frame(reader, preread: bytes = b"") -> Tuple[Any, Any]:
    """Read one length-prefixed frame from an ``asyncio.StreamReader``.

    ``preread`` holds up to 4 bytes already consumed from the stream (the
    server peeks at the first bytes of a connection to tell HTTP scrapes
    from frame traffic); they are treated as the start of the length prefix.
    """
    need = _LENGTH.size - len(preread)
    header = preread + (await reader.readexactly(need) if need > 0 else b"")
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise CodecError(f"frame length {length} exceeds the {MAX_FRAME_BYTES} limit")
    body = await reader.readexactly(length)
    return decode_frame(body)
