"""Wire codec for the asyncio runtime.

Every frame is length-prefixed JSON, and every envelope in it is a JSON
*row*: an array of the envelope's wire tag and then its fields, in the order
its ``_SCHEMA`` row names them.  ``_SCHEMA`` holds one row per envelope
class and is the only description of the wire classes: at import it is
compiled, row by row, into one generated encoder and one generated decoder
(:func:`_compile`), which is all a frame runs — no walk over the row per
field.  :class:`~repro.core.message.Message` and history deltas are the
hand-written leaves inside: a message is the row ``[msg_id, dst, sender,
payload, payload_bytes]``, then ``is_flush``, ``trace_id`` and ``members``
as far as the last of them that is set; a delta is ``[vertices, edges]``.
A frame's head is ``[sender, envelope]``.

The four frames that carry log values hold them *after* that JSON, one line
of value text each (``_VALUE_FRAMES``): a value is serialised where it is
first needed, and from there on frames and WAL records are built around its
bytes.  A value that is a turn is the array ``["__oe__", entry, …]`` of
``[sender, envelope]`` entries; any other value is the plain JSON of a
command, and one whose first item is the string ``"__oe__"`` is read as a
turn.  All of the text goes through the process's one JSON encoder and one
decoder (:mod:`repro.jsontext`).  JSON keeps the frames debuggable with
``tcpdump``/``wireshark`` and avoids pickling code objects across trust
boundaries; the simulator's size model (``size_bytes``) stays separate so
simulated byte counts do not depend on the wire form.

A batch carrier writes its destination set and sender once, as the size
model charges it: each member that shares them (and is neither a flush nor
a carrier) is a row ``[msg_id, payload, payload_bytes]``, with ``trace_id``
fourth only when set, decoded into a message that shares the carrier's
``dst`` and ``sender`` objects.  Any other member is a message row in full,
which is never shorter than five items.

Frames, log values and WAL records written before envelopes were rows held
each envelope, message and delta as a JSON object keyed by field name
(``{"type": "request", "message": {"msg_id": …}}``), a frame's head as
``{"sender": …, "envelope": …}`` and a turn entry as ``{"__oe__": 1,
"sender": …, "envelope": …}`` (one entry alone, several in an array).  They
still decode — the same ``_SCHEMA`` row generates each class's object
decoder beside its row decoder, and the JSON's type picks one — but nothing
writes them any more.

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
def _message_to_row(m: msg.Message) -> List[Any]:
    row = [m.msg_id, sorted(m.dst), m.sender, m.payload, m.payload_bytes]
    if m.members:
        # Batch carrier: one level of member messages (batch_of forbids
        # nesting, so the recursion is bounded at depth one).  A member that
        # shares the carrier's destinations and sender is a row of what it
        # adds; any other member travels as a message row of its own.
        dst, sender = m.dst, m.sender
        members = []
        for member in m.members:
            if (member.dst == dst and member.sender == sender
                    and not member.is_flush and not member.members):
                item = [member.msg_id, member.payload, member.payload_bytes]
                if member.trace_id is not None:
                    item.append(member.trace_id)
                members.append(item)
            else:
                members.append(_message_to_row(member))
        row += (m.is_flush, m.trace_id, members)
    elif m.trace_id is not None:
        # Observability correlation id (repro.obs): written only when set.
        row += (m.is_flush, m.trace_id)
    elif m.is_flush:
        row.append(True)
    return row


#: At their row positions, the values of the items a message row leaves off
#: its end when they are unset: ``is_flush``, ``trace_id``, ``members``.
_MESSAGE_TAIL = [None, None, None, None, None, False, None, ()]


def _message_from_row(row: List[Any]) -> msg.Message:
    if type(row) is list and len(row) == 5:  # nothing optional set: almost every message
        msg_id, dst, sender, payload, payload_bytes = row
        return msg.Message(msg_id, frozenset(dst), sender, payload, payload_bytes)
    if type(row) is not list or not 5 < len(row) < 9:
        raise ValueError(f"not a message row: {row!r:.64}")
    msg_id, dst, sender, payload, payload_bytes, is_flush, trace_id, members = (
        row + _MESSAGE_TAIL[len(row):])
    dst = frozenset(dst)
    return msg.Message(
        msg_id, dst, sender, payload, payload_bytes, is_flush, trace_id,
        _members(members, dst, sender, _message_from_row) if members else (),
    )


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
        _members(members, dst, sender, _message_from_dict) if members else (),
    )


def _members(
    items: List[Any], dst: frozenset, sender: Any, full: Callable[[Any], msg.Message]
) -> Tuple[msg.Message, ...]:
    """A carrier's members: each a row ``[msg_id, payload, payload_bytes]``
    (and ``trace_id`` when set) that takes the carrier's ``dst`` and
    ``sender``, or a message in full, read by ``full`` — the form of the
    carrier's own message."""
    members = []
    for item in items:
        if type(item) is not list or len(item) > 4:
            members.append(full(item))
        elif len(item) == 3:
            msg_id, payload, payload_bytes = item
            members.append(msg.Message(msg_id, dst, sender, payload, payload_bytes))
        else:
            msg_id, payload, payload_bytes, trace_id = item
            members.append(
                msg.Message(msg_id, dst, sender, payload, payload_bytes, False, trace_id))
    return tuple(members)


def _delta_to_row(delta: msg.HistoryDelta) -> List[Any]:
    # Edges are pairs already, which travel as arrays as they stand.
    return [[[mid, sorted(dst)] for mid, dst in delta.vertices], delta.edges]


# Delta vertex/edge ids recur across every index and pending-set on the
# receiving group; interning at the decode boundary makes the in-memory
# copies pointer-identical (see Message.msg_id).
def _delta(vertices: Any, edges: Any) -> msg.HistoryDelta:
    intern = sys.intern
    return msg.HistoryDelta(
        tuple([(intern(mid), frozenset(dst)) for mid, dst in vertices]) if vertices else (),
        tuple([(intern(a), intern(b)) for a, b in edges]) if edges else (),
    )


def _delta_from_row(row: List[Any]) -> msg.HistoryDelta:
    if type(row) is not list:
        raise TypeError(f"a delta row is an array, not {type(row).__name__}")
    return _delta(*row)


def _delta_from_dict(d: Dict[str, Any]) -> msg.HistoryDelta:
    # Keys of older deltas are ignored: a journal ``seq`` and a
    # ``last_delivered``.  A first contact written as a packed ``snapshot``
    # (parallel ``ids``/``dsts`` and ``edges_a``/``edges_b`` arrays) reads as
    # those entries ahead of the delta's own.
    get = d.get
    vertices, edges, snapshot = get("vertices"), get("edges"), get("snapshot")
    if snapshot is not None:
        sget = snapshot.get
        vertices = [*zip(sget("ids", ()), sget("dsts", ())), *(vertices or ())]
        edges = [*zip(sget("edges_a", ()), sget("edges_b", ())), *(edges or ())]
    return _delta(vertices, edges)


def _ballot_to_list(ballot: paxos.Ballot) -> list:
    return [ballot.round, ballot.proposer]


def _ballot_from_list(pair: Sequence[int]) -> paxos.Ballot:
    return paxos.Ballot(*pair)


# ------------------------------------------------------------------ the schema
_REQUIRED: Any = object()
_Converter = Optional[Callable[[Any], Any]]


def _field(
    attr: str, to_wire: _Converter = None, from_wire: _Converter = None,
    default: Any = _REQUIRED, from_dict: _Converter = None,
) -> tuple:
    """One attribute of a wire class, read by both directions.

    A converter is ``None`` when the value is JSON-able as it stands (tuples
    already travel as arrays).  ``from_wire`` reads the field from a row;
    ``from_dict`` reads it from an envelope object written before rows, and
    is ``from_wire`` unless the two forms differ.  ``default`` is the
    wire-form value assumed when such an object lacks the key (objects
    older than the field); without one the key is required and its absence
    is a ``KeyError``.  A row always holds every field.
    """
    return (attr, to_wire, from_wire, from_dict or from_wire, default)


def _compile(cls: type, tag: Any, *fields: Any) -> Tuple[Callable, Callable, Callable]:
    """One wire class's row encoder, row decoder and object decoder,
    generated from its fields.

    As ``dataclasses`` generates ``__init__``, all three are written out as
    source and compiled once: the encoder is one list display — ``tag``
    first unless it is ``None``, then each field in row order, through its
    converter — and the row decoder unpacks the row (so a row of the wrong
    length does not decode) and calls the class with its arguments in the
    class's field order (a positional call into the record's compiled
    ``__new__`` costs about half a keyword one).  The object decoder reads
    the same fields by name from an object written before envelopes were
    rows.  A bare string names a field that travels as it stands; the fields
    listed must be every field the class's constructor takes.
    """
    namespace: Dict[str, Any] = {"cls": cls}
    items, names = ([] if tag is None else [repr(tag)]), ([] if tag is None else ["_"])
    from_row, from_dict = {}, {}
    for spec in fields:
        attr, to_wire, row_reader, dict_reader, default = (
            _field(spec) if isinstance(spec, str) else spec
        )
        value, item, raw = f"obj.{attr}", attr, f"data[{attr!r}]"
        if to_wire is not None:
            namespace[f"to_{attr}"] = to_wire
            value = f"to_{attr}({value})"
        if row_reader is not None:
            namespace[f"from_{attr}"] = row_reader
            item = f"from_{attr}({attr})"
        if default is not _REQUIRED:
            namespace[f"default_{attr}"] = default
            raw = f"data.get({attr!r}, default_{attr})"
        if dict_reader is not None:
            namespace[f"from_dict_{attr}"] = dict_reader
            raw = f"from_dict_{attr}({raw})"
        items.append(value)
        names.append(attr)
        from_row[attr], from_dict[attr] = item, raw
    init = [f.name for f in dataclasses.fields(cls) if f.init]
    if sorted(init) != sorted(from_row):
        raise TypeError(f"a row of {cls.__name__} names {sorted(from_row)}, not {init}")
    source = (
        f"def encode(obj):\n    return [{', '.join(items)}]\n"
        f"def decode_row(row):\n    {', '.join(names)}, = row\n"
        f"    return cls({', '.join(from_row[name] for name in init)})\n"
        f"def decode_dict(data):\n"
        f"    return cls({', '.join(from_dict[name] for name in init)})\n"
    )
    exec(compile(source, f"<wire codec of {cls.__name__}>", "exec"), namespace)
    return namespace["encode"], namespace["decode_row"], namespace["decode_dict"]


def envelope_to_row(envelope: Any) -> List[Any]:
    """Encode any protocol envelope to its JSON-able wire row.

    Dispatch is on the exact class: a subclass travels only under an entry
    of its own (``FlexCastBatch`` is not its base ``ClientRequest``).
    """
    encode = _ENCODERS.get(type(envelope))
    if encode is None:
        raise CodecError(f"cannot encode envelope of type {type(envelope).__name__}")
    return encode(envelope)


def envelope_from_row(row: Any) -> Any:
    """Decode an envelope from its wire row (inverse of above)."""
    if type(row) is not list or not row:
        raise CodecError(f"an envelope row is a non-empty array, not {row!r:.64}")
    decode = _ROW_DECODERS.get(row[0])
    if decode is None:
        raise CodecError(f"cannot decode envelope type {row[0]!r}")
    return decode(row)


def envelope_from_dict(data: Dict[str, Any]) -> Any:
    """Decode an envelope from the JSON object of a frame or log value
    written before envelopes were rows."""
    decode = _DICT_DECODERS.get(data.get("type"))
    if decode is None:
        raise CodecError(f"cannot decode envelope type {data.get('type')!r}")
    return decode(data)


# SMR frames and the commit/acceptor WALs carry log *values*: the Turn a
# GroupReplica ordered, or plain JSON-able commands (tests driving multi-Paxos
# directly), which are plain JSON.  A turn is an array marked by its first
# item, ``_TURN``, then its entries, each ``[sender, envelope row]``.  Before
# rows a turn of one entry was that entry's object, ``{"__oe__": 1, "sender":
# …, "envelope": …}``, and several entries an array of such objects; both
# still decode.
_TURN = "__oe__"
_entry_to_row, _entry_from_row, _entry_from_dict = _compile(
    OrderedEnvelope, None,
    "sender", _field("envelope", envelope_to_row, envelope_from_row,
                     from_dict=envelope_from_dict),
)


def turn_text(entries: Sequence[OrderedEnvelope]) -> bytes:
    """Serialise a turn: the one place a log value becomes text."""
    return json_text([_TURN, *map(_entry_to_row, entries)])


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
    if type(wire) is list:
        if wire and wire[0] == _TURN:
            return Turn(tuple([_entry_from_row(entry) for entry in wire[1:]]), text)
        objects = wire
    else:
        objects = [wire]
    if objects and all(isinstance(o, dict) and o.get("__oe__") == 1 for o in objects):
        return Turn(tuple(map(_entry_from_dict, objects)), text)
    return wire


_MESSAGE = _field("message", _message_to_row, _message_from_row,
                  from_dict=_message_from_dict)
_HISTORY = _field("history", _delta_to_row, _delta_from_row, from_dict=_delta_from_dict)


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
#: A channel number; a FlexCast object written before envelopes were
#: numbered reads as 0, which no channel takes (``FlexCastGroup._in_order``).
_SEQ = _field("seq", default=0)
_BALLOT = _field("ballot", _ballot_to_list, _ballot_from_list)
_VALUE = _field("value", _value_text, _value_from_wire)

#: ``(class, wire tag, *fields)`` for every class that can be a frame: adding
#: an envelope is one row.  Field order is row order
#: (tests/runtime/test_wire_golden.py pins it byte for byte).  A key a row
#: does not name is ignored when an old envelope object decodes: older
#: FlexCast frames carry an ``epoch`` and piggybacked timestamp proposals
#: that no envelope has any more.
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

#: Wire tag -> field, for the frames that carry log values.  In the
#: envelope's row a value is its text (``bytes``), alone or last in each item
#: of a list; on the wire the texts follow the JSON of everything else, a
#: newline before each (our JSON text holds no raw newline), so encoding
#: splices them in and decoding cuts them out, and neither parses a value to
#: find where it ends.  A field of one value is the last of its row, and
#: leaves the row; a list leaves each item's value.  Frames older than the
#: lines held the value inside the JSON and decode as before.
_VALUE_FRAMES = {
    "smr-command": "payload", "paxos-accept": "value",
    "smr-catchup-reply": "entries", "paxos-promise": "accepted",
}
_ENCODERS: Dict[type, Callable[[Any], List[Any]]] = {}
_ROW_DECODERS: Dict[str, Callable[[List[Any]], Any]] = {}
_DICT_DECODERS: Dict[str, Callable[[Dict[str, Any]], Any]] = {}
#: Wire tag -> where its value field sits in the row (the tag is item 0).
_VALUE_AT: Dict[str, int] = {}
for _cls, _tag, *_fields in _SCHEMA:
    _ENCODERS[_cls], _ROW_DECODERS[_tag], _DICT_DECODERS[_tag] = _compile(
        _cls, _tag, *_fields)
    if _tag in _VALUE_FRAMES:
        _VALUE_AT[_tag] = 1 + [
            f if isinstance(f, str) else f[0] for f in _fields
        ].index(_VALUE_FRAMES[_tag])
del _cls, _tag, _fields


# --------------------------------------------------------------------- framing
def encode_frame(sender: Any, envelope: Any) -> bytes:
    """Encode one (sender, envelope) frame with its length prefix."""
    row = envelope_to_row(envelope)
    at = _VALUE_AT.get(row[0])
    if at is None:
        body = json_text([sender, row])
    else:
        values = row[at]
        if type(values) is bytes:
            del row[at]
            texts: Any = (values,)
        else:
            row[at] = [item[:-1] for item in values]
            texts = [item[-1] for item in values]
        body = b"\n".join((json_text([sender, row]), *texts))
    if len(body) > MAX_FRAME_BYTES:
        raise CodecError(f"frame of {len(body)} bytes exceeds the {MAX_FRAME_BYTES} limit")
    return _LENGTH.pack(len(body)) + body


def decode_frame(body: bytes) -> Tuple[Any, Any]:
    """Decode a frame body (without its length prefix) into (sender, envelope)."""
    head, newline, texts = body.partition(b"\n")
    try:
        data = json_value(head)
        if type(data) is not list:
            return _decode_object_frame(data, newline, texts)
        sender, row = data
        if newline:
            at = _VALUE_AT.get(row[0]) if type(row) is list and row else None
            lines = texts.split(b"\n")
            if at is not None and len(row) == at and len(lines) == 1:
                row.append(lines[0])
            elif at is not None and len(row) > at and len(lines) == len(row[at]):
                row[at] = [item + [line] for item, line in zip(row[at], lines)]
            else:
                raise CodecError(f"{len(lines)} value lines do not fit the frame")
        return sender, envelope_from_row(row)
    except CodecError:
        raise
    except _MALFORMED as exc:  # the frame's JSON, or one of its value lines
        raise CodecError(f"malformed frame: {exc!r}") from exc


def _decode_object_frame(data: Dict[str, Any], newline: bytes, texts: bytes) -> Tuple[Any, Any]:
    """A frame written before envelopes were rows: ``{"sender": …,
    "envelope": {"type": …, …}}``, its value lines spliced in by key."""
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
