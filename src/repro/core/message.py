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
like any other message — one pivot, one Skeen-timestamp convoy, one
msg/ack round, one history vertex — and the delivery gate fans it out into
per-member application deliveries (see DESIGN.md "batching the delivery
path").
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field
from typing import Any, FrozenSet, Iterable, Iterator, Optional, Tuple

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

_id_counter = itertools.count()


def fresh_message_id(prefix: str = "m") -> str:
    """Globally unique (per-process) message identifier."""
    return f"{prefix}{next(_id_counter)}"


def reset_message_ids() -> None:
    """Reset the id counter (tests only, to keep ids short and readable)."""
    global _id_counter
    _id_counter = itertools.count()


@dataclass(frozen=True, slots=True)
class Message:
    """An application-level atomic multicast message.

    Attributes
    ----------
    msg_id:
        Globally unique identifier (``m.id`` in the paper).
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

    msg_id: str
    dst: FrozenSet[GroupId]
    sender: Any = "client"
    payload: Any = None
    payload_bytes: int = 64
    is_flush: bool = False
    trace_id: Optional[str] = None
    members: Tuple["Message", ...] = ()

    def __post_init__(self) -> None:
        # Message ids recur in every history vertex, edge, journal entry,
        # pending-set key and wire frame a deployment ever touches; interning
        # collapses the per-hop string copies a decode path would otherwise
        # mint and turns the protocol's id-equality checks into pointer
        # comparisons.
        object.__setattr__(self, "msg_id", sys.intern(self.msg_id))

    @staticmethod
    def create(
        destinations: Iterable[GroupId],
        sender: Any = "client",
        payload: Any = None,
        payload_bytes: int = 64,
        msg_id: Optional[str] = None,
        is_flush: bool = False,
        trace_id: Optional[str] = None,
    ) -> "Message":
        """Build a message with a fresh id and a normalized destination set."""
        dst = frozenset(destinations)
        if not dst:
            raise ValueError("a multicast message needs at least one destination")
        return Message(
            msg_id=msg_id if msg_id is not None else fresh_message_id(),
            dst=dst,
            sender=sender,
            payload=payload,
            payload_bytes=int(payload_bytes),
            is_flush=is_flush,
            trace_id=trace_id,
        )

    @staticmethod
    def batch_of(
        messages: Iterable["Message"],
        batch_id: Optional[str] = None,
    ) -> "Message":
        """Build a batch carrier standing in for ``messages``.

        Every member must share one destination set (the window key the
        batching client coalesces under), must not be a flush (flushes are
        GC ordering barriers and are never delayed or coalesced), and must
        not itself be a batch (no nesting: one fan-out level keeps the
        delivery gate and the oracles trivially per-message).
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
            msg_id=batch_id if batch_id is not None else fresh_message_id("b"),
            dst=dst,
            sender=members[0].sender,
            payload=None,
            payload_bytes=sum(m.payload_bytes for m in members),
            is_flush=False,
            members=members,
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
@dataclass(frozen=True, slots=True)
class HistorySnapshot:
    """A compact packed form of a history's entire live vertex+edge set.

    This is the cold-sync payload: when a descendant's diff watermark falls
    below the sender's retained journal (or the descendant has never been
    sent anything), the sender ships one prebuilt snapshot instead of
    re-materialising per-entry tuples of the whole live history on every
    call.  The shape is parallel arrays — ``ids[i]`` is addressed to
    ``dsts[i]``, and ``edges_a[j] -> edges_b[j]`` is a dependency edge —
    mirroring the PR-6 durable-snapshot schema, so one builder serves both
    the wire and the storage layer.

    ``version`` is the sender-side journal version the snapshot was taken
    at: journal entries past it are shipped as an ordinary suffix next to
    the snapshot inside the same :class:`HistoryDelta`, which is what makes
    a cached snapshot exact between garbage collections (the history only
    grows through the journal).
    """

    ids: Tuple[str, ...] = ()
    dsts: Tuple[FrozenSet[GroupId], ...] = ()
    edges_a: Tuple[str, ...] = ()
    edges_b: Tuple[str, ...] = ()
    last_delivered: Optional[str] = None
    version: int = 0

    @property
    def is_empty(self) -> bool:
        return not self.ids and not self.edges_a

    def __len__(self) -> int:
        return len(self.ids) + len(self.edges_a)

    def iter_vertices(self) -> Iterator[Tuple[str, FrozenSet[GroupId]]]:
        return zip(self.ids, self.dsts)

    def iter_edges(self) -> Iterator[Tuple[str, str]]:
        return zip(self.edges_a, self.edges_b)

    def size_bytes(self) -> int:
        return (
            len(self.ids) * _HISTORY_VERTEX_BYTES
            + len(self.edges_a) * _HISTORY_EDGE_BYTES
            + (_MSG_ID_BYTES if self.last_delivered else 0)
        )


@dataclass(frozen=True, slots=True)
class HistoryDelta:
    """The portion of a group's history shipped inside an envelope.

    FlexCast never sends its whole (ever-growing) history: ``diff-hst`` sends
    only the vertices and dependency edges the destination has not been sent
    yet (§4.3).  A delta is an immutable snapshot taken at send time, so the
    sender can keep mutating its own history safely.

    ``seq`` is the sender-side journal version this delta brings the receiver
    up to (the watermark contract in DESIGN.md).  It is observability
    metadata: receivers merge deltas purely by content, and the size model
    counts it as part of the envelope header, not the delta payload.

    A *cold* delta additionally carries a :class:`HistorySnapshot` — the
    sender's packed live history as of ``snapshot.version`` — with
    ``vertices``/``edges`` reduced to the journal suffix past it.  The
    logical content is ``snapshot ∪ suffix`` (:meth:`iter_vertices` /
    :meth:`iter_edges`); receivers bulk-install the snapshot and then apply
    the suffix, which is what makes the cold path O(affected) instead of a
    per-entry replay of the sender's whole history.
    """

    vertices: Tuple[Tuple[str, FrozenSet[GroupId]], ...] = ()
    edges: Tuple[Tuple[str, str], ...] = ()
    last_delivered: Optional[str] = None
    seq: Optional[int] = None
    snapshot: Optional[HistorySnapshot] = None

    @property
    def is_empty(self) -> bool:
        return (
            not self.vertices
            and not self.edges
            and (self.snapshot is None or self.snapshot.is_empty)
        )

    def iter_vertices(self) -> Iterator[Tuple[str, FrozenSet[GroupId]]]:
        """All shipped vertices: snapshot contents first, then the suffix."""
        if self.snapshot is not None:
            yield from self.snapshot.iter_vertices()
        yield from self.vertices

    def iter_edges(self) -> Iterator[Tuple[str, str]]:
        """All shipped edges: snapshot contents first, then the suffix."""
        if self.snapshot is not None:
            yield from self.snapshot.iter_edges()
        yield from self.edges

    def size_bytes(self) -> int:
        return (
            len(self.vertices) * _HISTORY_VERTEX_BYTES
            + len(self.edges) * _HISTORY_EDGE_BYTES
            + (_MSG_ID_BYTES if self.last_delivered else 0)
            + (self.snapshot.size_bytes() if self.snapshot is not None else 0)
        )

    def __len__(self) -> int:
        return (
            len(self.vertices)
            + len(self.edges)
            + (len(self.snapshot) if self.snapshot is not None else 0)
        )


EMPTY_DELTA = HistoryDelta()


# --------------------------------------------------------------------------- envelopes
@dataclass(frozen=True, slots=True)
class Envelope:
    """Base class for everything sent between nodes."""

    def size_bytes(self) -> int:  # pragma: no cover - overridden
        return _HEADER_BYTES


@dataclass(frozen=True, slots=True)
class ClientRequest(Envelope):
    """Client -> group: submit a multicast message to the protocol."""

    message: Message
    kind: str = field(default="request", init=False)

    def size_bytes(self) -> int:
        return _HEADER_BYTES + self.message.size_bytes()


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


@dataclass(frozen=True, slots=True)
class ClientResponse(Envelope):
    """Group -> client: the group delivered the message."""

    msg_id: str
    group: GroupId
    kind: str = field(default="response", init=False)

    def size_bytes(self) -> int:
        return _HEADER_BYTES + _MSG_ID_BYTES + _GROUP_ID_BYTES


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


#: One piggybacked Skeen proposal: ``(proposing group, local timestamp)``.
TsProposal = Tuple[GroupId, int]
_TS_PROPOSAL_BYTES = _GROUP_ID_BYTES + _TIMESTAMP_BYTES


@dataclass(frozen=True, slots=True)
class FlexCastMsg(Envelope):
    """FlexCast ``msg``: lca -> other destinations, with a history delta."""

    message: Message
    history: HistoryDelta
    notified: FrozenSet[GroupId] = frozenset()
    #: Hybrid mode: Skeen proposals for ``message`` known to the sender,
    #: piggybacked so destinations converge on the final timestamp without
    #: waiting for every dedicated ``ts-propose`` envelope.
    ts_proposals: Tuple[TsProposal, ...] = ()
    kind: str = field(default="msg", init=False)

    def size_bytes(self) -> int:
        return (
            _HEADER_BYTES
            + self.message.size_bytes()
            + self.history.size_bytes()
            + len(self.notified) * _GROUP_ID_BYTES
            + len(self.ts_proposals) * _TS_PROPOSAL_BYTES
        )


@dataclass(frozen=True, slots=True)
class FlexCastAck(Envelope):
    """FlexCast ``ack``: a destination informs its descendants of its history."""

    message: Message
    history: HistoryDelta
    from_group: GroupId
    notified: FrozenSet[GroupId] = frozenset()
    #: Hybrid mode: Skeen proposals for ``message`` known to the sender.
    ts_proposals: Tuple[TsProposal, ...] = ()
    kind: str = field(default="ack", init=False)

    def size_bytes(self) -> int:
        return (
            _HEADER_BYTES
            + _MSG_ID_BYTES
            + _GROUP_ID_BYTES
            + self.history.size_bytes()
            + len(self.notified) * _GROUP_ID_BYTES
            + len(self.ts_proposals) * _TS_PROPOSAL_BYTES
        )


@dataclass(frozen=True, slots=True)
class FlexCastNotif(Envelope):
    """FlexCast ``notif``: ask a non-destination group to flush its dependencies."""

    message: Message
    history: HistoryDelta
    from_group: GroupId
    kind: str = field(default="notif", init=False)

    def size_bytes(self) -> int:
        return (
            _HEADER_BYTES
            + _MSG_ID_BYTES
            + _GROUP_ID_BYTES
            + self.history.size_bytes()
        )


@dataclass(frozen=True, slots=True)
class HistorySnapshotFrame(Envelope):
    """A group's cold-sync transfer: its packed live history as one frame.

    This is the explicit wire form of the snapshot-bearing delta the diff
    tracker already produces for far-behind descendants.  It exists so
    out-of-band catch-up paths — the asyncio runtime pushing state to a
    rebooted peer, :meth:`repro.smr.replica.ReplicatedGroup.restart_replica`
    ordering a bulk sync through the group's log — ship exactly the same
    O(affected) payload the msg/ack/notif envelopes do, instead of growing a
    second, per-entry transfer format.  Receivers merge it like any other
    delta (idempotent; forgotten ids are filtered), so duplicated or stale
    frames are harmless.
    """

    group: GroupId
    delta: HistoryDelta
    kind: str = field(default="history-snapshot", init=False)

    def size_bytes(self) -> int:
        return _HEADER_BYTES + _GROUP_ID_BYTES + self.delta.size_bytes()


@dataclass(frozen=True, slots=True)
class FlexCastTsPropose(Envelope):
    """Hybrid mode: one destination's Skeen proposal for a global message.

    Sent by a destination to every *other* destination of ``message`` on
    first contact (the lca proposes when the client submits; the others when
    the proposal or the ``msg`` envelope reaches them).  It carries the
    message's identity *and destination set* — not just its id — because a
    destination may hear a proposal *before* FlexCast's own ``msg`` envelope
    and must still be able to propose for the right destination set (Skeen's
    early-proposal path).  The payload is stripped by the sender: proposing
    never needs it, and the ``msg`` envelope remains the single payload
    carrier (see :data:`PAYLOAD_KINDS`).

    Only destinations of ``message`` exchange these, so genuineness is
    preserved.
    """

    message: Message
    timestamp: int
    from_group: GroupId
    kind: str = field(default="ts-propose", init=False)

    def size_bytes(self) -> int:
        return (
            _HEADER_BYTES
            + _MSG_ID_BYTES
            + len(self.message.dst) * _GROUP_ID_BYTES
            + _TIMESTAMP_BYTES
            + _GROUP_ID_BYTES
        )


@dataclass(frozen=True, slots=True)
class SkeenTimestamp(Envelope):
    """Skeen: a destination's local timestamp for a message."""

    msg_id: str
    timestamp: int
    from_group: GroupId
    kind: str = field(default="timestamp", init=False)

    def size_bytes(self) -> int:
        return _HEADER_BYTES + _MSG_ID_BYTES + _TIMESTAMP_BYTES + _GROUP_ID_BYTES


@dataclass(frozen=True, slots=True)
class SkeenPropose(Envelope):
    """Skeen: the message as disseminated to every destination group."""

    message: Message
    kind: str = field(default="msg", init=False)

    def size_bytes(self) -> int:
        return _HEADER_BYTES + self.message.size_bytes()


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
