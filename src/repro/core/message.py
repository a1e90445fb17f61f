"""Messages and protocol envelopes.

Two layers of "message" exist in this codebase, mirroring the paper:

* :class:`Message` is the *application* multicast message — what a client
  hands to ``multicast(m)``: a unique id, a destination set of groups, and an
  opaque payload.  It is immutable; per-group protocol state about a message
  (received acks, notified groups, …) lives inside each protocol group, never
  on the shared message object.

* *Envelopes* are what protocol groups actually put on the wire: the paper's
  ``msg``, ``ack`` and ``notif`` messages (FlexCast), timestamp exchanges
  (Skeen), tree forwards (hierarchical), plus client requests and responses.
  Every envelope knows its serialized size (``size_bytes``), which feeds the
  traffic accounting behind Figure 8 and the overhead figures.

A third, optional shape sits between the two: a **batch**.  A
:class:`Message` whose :attr:`Message.members` tuple is non-empty is a
*batch carrier* — an ordering unit that stands in for N same-destination
application messages (built with :meth:`Message.batch_of`, submitted with a
:class:`FlexCastBatch` envelope).  The protocol orders the carrier exactly
like any other message — one msg/ack round, one history vertex — and the
delivery gate fans it out into per-member application deliveries (see
DESIGN.md "batching the delivery path").
"""

from __future__ import annotations

import sys
from dataclasses import MISSING, dataclass, field, fields
from typing import (
    Any, Dict, FrozenSet, Iterable, List, Optional, Tuple, Type, TypeVar, cast,
)

from ..overlay.base import GroupId

# Serialized-size model (bytes).  These constants approximate a compact binary
# encoding: they only need to be *consistent* across protocols so that the
# relative traffic volumes (Figure 8) are meaningful.
_HEADER_BYTES = 40          # envelope kind, ids, addressing
_MSG_ID_BYTES = 16          # uuid-sized message identifier
_GROUP_ID_BYTES = 2         # group ids are small integers
_HISTORY_VERTEX_BYTES = _MSG_ID_BYTES + 4   # id + destination bitmap
_HISTORY_EDGE_BYTES = 2 * _MSG_ID_BYTES
_TIMESTAMP_BYTES = 8

_R = TypeVar("_R")

#: Field metadata asking :func:`record` to ``sys.intern`` the value it stores.
INTERNED = {"intern": True}


def record(cls: Type[_R]) -> Type[_R]:
    """Give a frozen slotted dataclass one compiled constructor, ``__new__``.

    The dataclass-generated ``__init__`` of a frozen class stores each field
    with ``object.__setattr__``, one call per field.  The ``__new__`` built
    here, once per class at import (as ``runtime/codec.py`` builds its
    codecs), allocates a *layout twin* instead: a class with the same base
    and ``__slots__`` and no frozen ``__setattr__``, whose instances take
    every field as a plain attribute store.  Assigning ``__class__`` then
    turns the twin into an instance of ``cls``, which CPython allows because
    the two layouts are identical.  The ``__init__`` is deleted, so this is
    the class's one construction path; the rest of the dataclass (fields,
    ``replace``, ``==``, ``hash``, ``repr``, ``FrozenInstanceError``) stays
    as generated.  ``__getnewargs__`` lets ``copy`` and ``pickle`` call the
    new constructor.  A field whose metadata is :data:`INTERNED` is stored
    ``sys.intern``-ed.
    """
    twin = type(f"{cls.__name__}Twin", cls.__bases__, {
        "__slots__": cls.__dict__["__slots__"],
        # Both: a frozen base's __delattr__ alone would route every store
        # through a Python-level __setattr__ lookup.
        "__setattr__": object.__setattr__, "__delattr__": object.__delattr__,
    })
    namespace: Dict[str, Any] = {"new": object.__new__, "twin": twin, "intern": sys.intern}
    params: List[str] = []
    stores: List[str] = []
    args: List[str] = []
    for f in fields(cast(Any, cls)):
        if f.default_factory is not MISSING:
            raise TypeError(f"{cls.__name__}.{f.name}: record fields take no default_factory")
        value = f.name
        if f.default is not MISSING:
            namespace[f"default_{f.name}"] = f.default
            if not f.init:
                value = f"default_{f.name}"
        if f.init:
            params.append(f.name if f.default is MISSING else f"{f.name}=default_{f.name}")
            args.append(f"self.{f.name}")
        if f.metadata.get("intern"):
            value = f"intern({value})"
        stores.append(f"    self.{f.name} = {value}\n")
    source = (
        f"def __new__(cls, {', '.join(params)}):\n"
        f"    self = new(twin)\n{''.join(stores)}"
        f"    self.__class__ = cls\n    return self\n"
        f"def __getnewargs__(self):\n    return ({''.join(a + ', ' for a in args)})\n"
    )
    exec(compile(source, f"<record {cls.__name__}>", "exec"), namespace)
    for name in ("__new__", "__getnewargs__"):
        namespace[name].__qualname__ = f"{cls.__qualname__}.{name}"
    setattr(cls, "__new__", staticmethod(namespace["__new__"]))
    setattr(cls, "__getnewargs__", namespace["__getnewargs__"])
    delattr(cls, "__init__")
    return cls


@record
@dataclass(frozen=True, slots=True)
class Message:
    """An application-level atomic multicast message.

    Attributes
    ----------
    msg_id:
        Globally unique identifier (``m.id`` in the paper), named by the
        sender.
    dst:
        Destination groups (``m.dst``).  ``|dst| == 1`` makes it a *local*
        message, ``|dst| > 1`` a *global* message.
    sender:
        Identifier of the client that multicast the message.
    payload:
        Opaque application payload; only its size matters to the protocols.
    payload_bytes:
        Declared payload size used for traffic accounting (gTPC-C transactions
        declare realistic sizes without materialising the bytes).
    is_flush:
        True for the distinguished garbage-collection messages (§4.3).
    trace_id:
        Optional observability correlation id (see :mod:`repro.obs`).
        ``None`` means "untraced"; the :attr:`trace` property falls back
        to ``msg_id`` so every message has a usable trace identity.  The
        id survives the wire (``runtime/codec.py``) so spans recorded on
        different nodes reassemble into one timeline.
    members:
        Empty for ordinary messages.  Non-empty makes this message a *batch
        carrier*: an ordering unit standing in for the member messages (all
        sharing this carrier's destination set).  The protocol orders the
        carrier; the delivery gate fans it out into per-member deliveries,
        so members — never the carrier — are what applications observe.
    """

    # Message ids recur in every history vertex, edge, journal entry,
    # pending-set key and wire frame a deployment ever touches; interning
    # collapses the per-hop string copies a decode path would otherwise mint
    # and turns the protocol's id-equality checks into pointer comparisons.
    msg_id: str = field(metadata=INTERNED)
    dst: FrozenSet[GroupId]
    sender: Any = "client"
    payload: Any = None
    payload_bytes: int = 64
    is_flush: bool = False
    trace_id: Optional[str] = None
    members: Tuple["Message", ...] = ()

    @staticmethod
    def create(
        destinations: Iterable[GroupId],
        sender: Any = "client",
        payload: Any = None,
        payload_bytes: int = 64,
        *,
        msg_id: str,
        is_flush: bool = False,
        trace_id: Optional[str] = None,
    ) -> "Message":
        """Build a message named ``msg_id`` with a normalized destination set.

        The sender names its own messages (a client as ``<client_id>-<n>``),
        so an id is unique as long as sender ids are.
        """
        dst = frozenset(destinations)
        if not dst:
            raise ValueError("a multicast message needs at least one destination")
        return Message(
            msg_id, dst, sender, payload, int(payload_bytes), is_flush, trace_id
        )

    @staticmethod
    def batch_of(messages: Iterable["Message"], *, batch_id: str) -> "Message":
        """Build a batch carrier standing in for ``messages``.

        Every member must share one destination set (the window key the
        batching client coalesces under), must not be a flush (flushes are
        GC ordering barriers and are never delayed or coalesced), and must
        not itself be a batch (no nesting: one fan-out level keeps the
        delivery gate and the oracles trivially per-message).

        The carrier takes its first member's sender.  On the wire a member
        that shares the carrier's destinations and sender is a row of its
        id, payload and size (``runtime/codec.py``); a member with another
        sender travels in full.
        """
        members = tuple(messages)
        if not members:
            raise ValueError("a batch needs at least one member message")
        dst = members[0].dst
        for member in members:
            if member.dst != dst:
                raise ValueError(
                    f"batch members must share one destination set: "
                    f"{sorted(member.dst)} != {sorted(dst)}"
                )
            if member.is_flush:
                raise ValueError(f"flush message {member.msg_id} cannot be batched")
            if member.members:
                raise ValueError(f"batch {member.msg_id} cannot be nested in a batch")
        return Message(
            batch_id, dst, members[0].sender, None,
            sum(m.payload_bytes for m in members), False, None, members,
        )

    @property
    def is_local(self) -> bool:
        """True iff the message is addressed to a single group."""
        return len(self.dst) == 1

    @property
    def is_global(self) -> bool:
        """True iff the message is addressed to two or more groups."""
        return len(self.dst) > 1

    @property
    def is_batch(self) -> bool:
        """True iff this message is a batch carrier (see :meth:`batch_of`)."""
        return bool(self.members)

    @property
    def trace(self) -> str:
        """The message's trace identity: ``trace_id``, else ``msg_id``."""
        return self.trace_id if self.trace_id is not None else self.msg_id

    def size_bytes(self) -> int:
        """Serialized size of the bare message (no protocol metadata).

        A batch carrier ships its destination set once and each member as
        ``id + payload`` — the amortization the batching layer exists for.
        """
        base = _MSG_ID_BYTES + len(self.dst) * _GROUP_ID_BYTES
        if self.members:
            return base + sum(
                _MSG_ID_BYTES + member.payload_bytes for member in self.members
            )
        return base + self.payload_bytes

    def __repr__(self) -> str:  # compact, test-friendly
        if self.members:
            return f"<batch {self.msg_id} n={len(self.members)} dst={sorted(self.dst)}>"
        kind = "flush" if self.is_flush else "msg"
        return f"<{kind} {self.msg_id} dst={sorted(self.dst)}>"


# --------------------------------------------------------------------------- history delta
@record
@dataclass(frozen=True, slots=True)
class HistoryDelta:
    """The portion of a group's history shipped inside an envelope.

    FlexCast never sends its whole (ever-growing) history: ``diff-hst`` sends
    only the vertices and dependency edges the destination has not been sent
    yet (§4.3).  A delta is an immutable snapshot taken at send time, so the
    sender can keep mutating its own history safely.

    A first contact after the sender's last garbage collection (which
    empties its journal) ships the sender's whole live history, in the same
    two tuples.
    """

    vertices: Tuple[Tuple[str, FrozenSet[GroupId]], ...] = ()
    edges: Tuple[Tuple[str, str], ...] = ()

    @property
    def is_empty(self) -> bool:
        return not self.vertices and not self.edges

    def size_bytes(self) -> int:
        return (
            len(self.vertices) * _HISTORY_VERTEX_BYTES
            + len(self.edges) * _HISTORY_EDGE_BYTES
        )

    def __len__(self) -> int:
        return len(self.vertices) + len(self.edges)


EMPTY_DELTA = HistoryDelta()


# --------------------------------------------------------------------------- envelopes
class Envelope:
    """Base class for everything sent between nodes."""

    __slots__ = ()

    def size_bytes(self) -> int:  # pragma: no cover - overridden
        return _HEADER_BYTES


@record
@dataclass(frozen=True, slots=True)
class ClientRequest(Envelope):
    """Client -> group: submit a multicast message to the protocol."""

    message: Message
    kind: str = field(default="request", init=False)

    def size_bytes(self) -> int:
        return _HEADER_BYTES + self.message.size_bytes()


@record
@dataclass(frozen=True, slots=True)
class FlexCastBatch(ClientRequest):
    """Client -> lca: a coalesced window of same-destination messages.

    The envelope's :attr:`message` is a batch *carrier*
    (:meth:`Message.batch_of`): one ordering unit standing in for N member
    messages that share a destination set.  Because a batch enters the
    protocol exactly where a client request does — at the lca of its
    destination set — this envelope *is* a :class:`ClientRequest` (the
    subclass only changes the wire ``kind`` and lets the traffic accounting
    attribute the batched payload bytes): every request-handling path
    (submission validation, idempotent re-submission) applies to batches
    with no further dispatch.  The delivery gate fans the carrier out into
    per-member deliveries, so the batch boundary is invisible to
    applications and to the checker.
    """

    kind: str = field(default="batch", init=False)


@record
@dataclass(frozen=True, slots=True)
class ClientResponse(Envelope):
    """Group -> client: the group delivered the message."""

    msg_id: str
    group: GroupId
    kind: str = field(default="response", init=False)

    def size_bytes(self) -> int:
        return _HEADER_BYTES + _MSG_ID_BYTES + _GROUP_ID_BYTES


@record
@dataclass(frozen=True, slots=True)
class NodeHello:
    """Node -> server: register my network address before first use.

    Transport-level, **not** an :class:`Envelope`: it must never be ordered
    through a group's log — a receiving server registers the address in its
    address book and drops the frame.  The process-cluster runtime
    (:mod:`repro.runtime.proc`) uses it so clients spawned after the static
    address book was computed can still receive :class:`ClientResponse`
    frames.
    """

    node_id: str
    host: str
    port: int
    kind: str = field(default="node-hello", init=False)

    def size_bytes(self) -> int:
        return _HEADER_BYTES + _MSG_ID_BYTES + 18


#: One Strategy (c) notification: ``(notified group, notifier)``.  A frame
#: older than the pair names the group alone, which reads as ``(group, None)``.
NotifiedPair = Tuple[GroupId, Optional[GroupId]]
_NOTIFIED_PAIR_BYTES = 2 * _GROUP_ID_BYTES



@record
@dataclass(frozen=True, slots=True)
class FlexCastMsg(Envelope):
    """FlexCast ``msg``: lca -> other destinations, with a history delta.

    ``seq`` (here and on ``ack`` and ``notif``) numbers the envelope on its
    channel, the sending group -> the receiving group; the size model counts
    it as part of the header."""

    message: Message
    history: HistoryDelta
    seq: int
    notified: FrozenSet[NotifiedPair] = frozenset()
    kind: str = field(default="msg", init=False)

    def size_bytes(self) -> int:
        return (
            _HEADER_BYTES
            + self.message.size_bytes()
            + self.history.size_bytes()
            + len(self.notified) * _NOTIFIED_PAIR_BYTES
        )


@record
@dataclass(frozen=True, slots=True)
class FlexCastAck(Envelope):
    """FlexCast ``ack``: a destination, or a group answering a notif, informs
    its descendants of its history."""

    message: Message
    history: HistoryDelta
    from_group: GroupId
    seq: int
    #: The group whose notif this ack answers; ``None`` when ``from_group``
    #: is a destination of ``message`` acking for itself.
    notifier: Optional[GroupId] = None
    notified: FrozenSet[NotifiedPair] = frozenset()
    kind: str = field(default="ack", init=False)

    def size_bytes(self) -> int:
        return (
            _HEADER_BYTES
            + _MSG_ID_BYTES
            + _GROUP_ID_BYTES
            + (_GROUP_ID_BYTES if self.notifier is not None else 0)
            + self.history.size_bytes()
            + len(self.notified) * _NOTIFIED_PAIR_BYTES
        )


@record
@dataclass(frozen=True, slots=True)
class FlexCastNotif(Envelope):
    """FlexCast ``notif``: ask a non-destination group to flush its dependencies."""

    message: Message
    history: HistoryDelta
    from_group: GroupId
    seq: int
    kind: str = field(default="notif", init=False)

    def size_bytes(self) -> int:
        return (
            _HEADER_BYTES
            + _MSG_ID_BYTES
            + _GROUP_ID_BYTES
            + self.history.size_bytes()
        )


@record
@dataclass(frozen=True, slots=True)
class SkeenTimestamp(Envelope):
    """Skeen: a destination's local timestamp for a message."""

    msg_id: str
    timestamp: int
    from_group: GroupId
    kind: str = field(default="timestamp", init=False)

    def size_bytes(self) -> int:
        return _HEADER_BYTES + _MSG_ID_BYTES + _TIMESTAMP_BYTES + _GROUP_ID_BYTES


@record
@dataclass(frozen=True, slots=True)
class TreeForward(Envelope):
    """Hierarchical: a message ordered by a group and pushed to a child."""

    message: Message
    sequence: int
    kind: str = field(default="msg", init=False)

    def size_bytes(self) -> int:
        return _HEADER_BYTES + self.message.size_bytes() + _TIMESTAMP_BYTES


#: Envelope kinds that carry the application payload.  Communication overhead
#: (Figures 1 and 9) is defined over payload messages only.  ``batch`` is the
#: coalesced form of ``request``: one envelope carrying N member payloads.
PAYLOAD_KINDS = frozenset({"request", "msg", "batch"})
