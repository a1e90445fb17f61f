"""Wire codec for the asyncio runtime.

Every frame is length-prefixed JSON.  ``_SCHEMA`` holds one row per envelope
class and both directions read it; :class:`~repro.core.message.Message` and
history deltas are the hand-written leaves inside.  The four frames that
carry log values hold them *after* that JSON, one line of value text each
(``_VALUE_FRAMES``): a value is serialised where it is first needed, and from
there on frames and WAL records are built around its bytes.  JSON keeps the
frames debuggable with ``tcpdump``/``wireshark`` and avoids pickling code
objects across trust boundaries; the simulator's size model (``size_bytes``)
stays separate so simulated byte counts do not depend on JSON verbosity.
"""

from __future__ import annotations

import json
import struct
import sys
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from ..core import message as msg
from ..smr import multipaxos as smr, paxos
from ..smr.paxos import json_text
from ..smr.replica import OrderedEnvelope, TimerFired, Turn

#: 4-byte big-endian length prefix.
_LENGTH = struct.Struct(">I")

#: Maximum accepted frame size (16 MiB) — guards against corrupted prefixes.
MAX_FRAME_BYTES = 16 * 1024 * 1024


class CodecError(ValueError):
    """Raised when a frame cannot be encoded or decoded."""


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
        # nesting, so the recursion is bounded at depth one).
        d["members"] = [_message_to_dict(member) for member in m.members]
    return d


def _message_from_dict(d: Dict[str, Any]) -> msg.Message:
    return msg.Message(
        msg_id=d["msg_id"],
        dst=frozenset(d["dst"]),
        sender=d["sender"],
        payload=d.get("payload"),
        payload_bytes=d.get("payload_bytes", 64),
        is_flush=d.get("is_flush", False),
        trace_id=d.get("trace_id"),
        members=tuple(
            _message_from_dict(member) for member in d.get("members", [])
        ),
    )


def _snapshot_to_dict(snapshot: msg.HistorySnapshot) -> Dict[str, Any]:
    return {
        "ids": list(snapshot.ids),
        "dsts": [sorted(dst) for dst in snapshot.dsts],
        "edges_a": list(snapshot.edges_a),
        "edges_b": list(snapshot.edges_b),
        "last_delivered": snapshot.last_delivered,
        "version": snapshot.version,
    }


def _snapshot_from_dict(d: Dict[str, Any]) -> msg.HistorySnapshot:
    intern = sys.intern
    return msg.HistorySnapshot(
        ids=tuple(intern(mid) for mid in d.get("ids", [])),
        dsts=tuple(frozenset(dst) for dst in d.get("dsts", [])),
        edges_a=tuple(intern(a) for a in d.get("edges_a", [])),
        edges_b=tuple(intern(b) for b in d.get("edges_b", [])),
        last_delivered=d.get("last_delivered"),
        version=d.get("version", 0),
    )


def _delta_to_dict(delta: msg.HistoryDelta) -> Dict[str, Any]:
    d = {
        "vertices": [[mid, sorted(dst)] for mid, dst in delta.vertices],
        "edges": [list(edge) for edge in delta.edges],
        "last_delivered": delta.last_delivered,
        "seq": delta.seq,
    }
    if delta.snapshot is not None:
        # Cold-sync deltas only: warm diffs keep their historical
        # byte-for-byte frame shape (same emit-only-when-set discipline as
        # trace_id/members).
        d["snapshot"] = _snapshot_to_dict(delta.snapshot)
    return d


def _delta_from_dict(d: Dict[str, Any]) -> msg.HistoryDelta:
    # Delta vertex/edge ids recur across every index and pending-set on the
    # receiving group; interning at the decode boundary makes the in-memory
    # copies pointer-identical (see Message.__post_init__).
    intern = sys.intern
    snapshot = d.get("snapshot")
    return msg.HistoryDelta(
        vertices=tuple(
            (intern(mid), frozenset(dst)) for mid, dst in d.get("vertices", [])
        ),
        edges=tuple((intern(a), intern(b)) for a, b in d.get("edges", [])),
        last_delivered=d.get("last_delivered"),
        seq=d.get("seq"),
        snapshot=_snapshot_from_dict(snapshot) if snapshot is not None else None,
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


def _fields(*fields: Any) -> Tuple[tuple, ...]:
    """A bare string names a field that travels as it stands."""
    return tuple(_field(f) if isinstance(f, str) else f for f in fields)


def _pack(data: Dict[str, Any], fields: Tuple[tuple, ...], obj: Any) -> Dict[str, Any]:
    for attr, key, to_wire, _, _ in fields:
        value = getattr(obj, attr)
        data[key] = value if to_wire is None else to_wire(value)
    return data


def _unpack(cls: type, fields: Tuple[tuple, ...], data: Dict[str, Any]) -> Any:
    kwargs = {}
    for attr, key, _, from_wire, default in fields:
        raw = data[key] if default is _REQUIRED else data.get(key, default)
        kwargs[attr] = raw if from_wire is None else from_wire(raw)
    return cls(**kwargs)


def envelope_to_dict(envelope: Any) -> Dict[str, Any]:
    """Encode any protocol envelope to its JSON-able wire dictionary.

    Dispatch is on the exact class: a subclass travels only under an entry
    of its own (``FlexCastBatch`` is not its base ``ClientRequest``).
    """
    entry = _BY_CLASS.get(type(envelope))
    if entry is None:
        raise CodecError(f"cannot encode envelope of type {type(envelope).__name__}")
    return _pack({"type": entry[0]}, entry[1], envelope)


def envelope_from_dict(data: Dict[str, Any]) -> Any:
    """Decode an envelope from its JSON wire dictionary (inverse of above)."""
    entry = _BY_TAG.get(data.get("type"))
    if entry is None:
        raise CodecError(f"cannot decode envelope type {data.get('type')!r}")
    return _unpack(entry[0], entry[1], data)


# SMR frames and the commit/acceptor WALs carry log *values*: the Turn a
# GroupReplica ordered, or plain JSON-able commands (tests driving multi-Paxos
# directly), which are plain JSON.  A turn of one entry is that entry's
# object — the bytes written when an entry was the value, so every older
# frame and WAL file reads as a turn of one — and several entries are an
# array of such objects.  An entry is marked ``"__oe__": 1`` rather than by
# ``type``: it is a value *inside* frames and records, never a frame of its
# own.
_LOG_ENTRY = _fields("sender", _field("envelope", envelope_to_dict, envelope_from_dict))


def turn_text(entries: Sequence[OrderedEnvelope]) -> bytes:
    """Serialise a turn: the one place a log value becomes text."""
    wire = [_pack({"__oe__": 1}, _LOG_ENTRY, entry) for entry in entries]
    return json_text(wire[0] if len(wire) == 1 else wire)


def turn_entries(text: bytes) -> Tuple[OrderedEnvelope, ...]:
    """Parse a turn's text (inverse of above)."""
    try:
        return _value_from_wire(text).entries
    except (AttributeError, ValueError) as exc:  # plain JSON, or not JSON
        raise smr.UnreadableValue(f"not a turn: {text[:64]!r}") from exc


def _value_text(value: Any) -> bytes:
    return value.text if type(value) is Turn else json_text(value)


def _value_from_wire(wire: Any) -> Any:
    """A value from its line of a frame (``bytes``, which a turn keeps as its
    text) or from its place inside the JSON of a frame older than that."""
    text = None
    if type(wire) is bytes:
        text, wire = wire, json.loads(wire.decode("utf-8"))
    objects = wire if isinstance(wire, list) else [wire]
    if objects and all(isinstance(o, dict) and o.get("__oe__") == 1 for o in objects):
        return Turn(tuple(_unpack(OrderedEnvelope, _LOG_ENTRY, o) for o in objects), text)
    return wire


_MESSAGE = _field("message", _message_to_dict, _message_from_dict)
_HISTORY = _field("history", _delta_to_dict, _delta_from_dict)
_NOTIFIED = _field("notified", sorted, frozenset, default=())
_TS_PROPOSALS = _field(
    "ts_proposals", None, lambda pairs: tuple((g, ts) for g, ts in pairs), default=()
)
_BALLOT = _field("ballot", _ballot_to_list, _ballot_from_list)
_VALUE = _field("value", _value_text, _value_from_wire)

#: ``(class, wire tag, *fields)`` for every class that can be a frame: adding
#: an envelope is one row.  Field order is wire order
#: (tests/runtime/test_wire_golden.py pins it byte for byte).  A key a row
#: does not name is ignored on decode: older FlexCast frames carry an
#: ``epoch`` that no envelope has any more.
_SCHEMA: Tuple[tuple, ...] = (
    (msg.ClientRequest, "request", _MESSAGE),
    (msg.FlexCastBatch, "flexcast-batch", _MESSAGE),
    (msg.ClientResponse, "response", "msg_id", "group"),
    (msg.FlexCastMsg, "flexcast-msg",
     _MESSAGE, _HISTORY, _NOTIFIED, _TS_PROPOSALS),
    (msg.FlexCastAck, "flexcast-ack",
     _MESSAGE, _HISTORY, "from_group", _NOTIFIED, _TS_PROPOSALS),
    (msg.HistorySnapshotFrame, "history-snapshot",
     "group", _field("delta", _delta_to_dict, _delta_from_dict, key="history")),
    (msg.FlexCastTsPropose, "flexcast-ts-propose",
     _MESSAGE, "timestamp", "from_group"),
    (msg.FlexCastNotif, "flexcast-notif", _MESSAGE, _HISTORY, "from_group"),
    (msg.SkeenTimestamp, "skeen-timestamp", "msg_id", "timestamp", "from_group"),
    (msg.SkeenPropose, "skeen-propose", _MESSAGE),
    (msg.TreeForward, "tree-forward", _MESSAGE, "sequence"),
    (msg.NodeHello, "node-hello", "node_id", "host", "port"),
    # SMR / Paxos: the process runtime replicates each group over real TCP,
    # so the intra-group consensus traffic crosses the wire too.
    (smr.ClientCommand, "smr-command", _field("payload", _value_text, _value_from_wire)),
    (smr.Commit, "smr-commit", "instance", _BALLOT),
    (smr.Heartbeat, "smr-heartbeat", "leader"),
    (smr.CatchupRequest, "smr-catchup", "from_instance", "from_replica"),
    # Only ever inside a log value: a replica reports a timer of its protocol
    # copy due by ordering this through its group's log.
    (TimerFired, "smr-timer", "index"),
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
_BY_CLASS = {cls: (tag, _fields(*fields)) for cls, tag, *fields in _SCHEMA}
_BY_TAG = {tag: (cls, _fields(*fields)) for cls, tag, *fields in _SCHEMA}

#: Wire tag -> key, for the frames that carry log values.  In the envelope's
#: dictionary a value is its text (``bytes``), alone or last in each row of a
#: list; on the wire the texts follow the JSON of everything else, a newline
#: before each (text from ``json.dumps`` holds no raw newline), so encoding
#: splices them in and decoding cuts them out, and neither parses a value to
#: find where it ends.  Frames older than this held the value inside the JSON
#: and decode as before.
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
        data = json.loads(head.decode("utf-8"))
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
    except ValueError as exc:  # not UTF-8, or not JSON: the frame, or a value line
        raise CodecError(f"malformed frame: {exc}") from exc


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
