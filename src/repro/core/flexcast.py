"""FlexCast: genuine overlay-based atomic multicast (paper §4, Algorithms 1-3).

Groups are arranged on a complete DAG (:class:`~repro.overlay.cdag.CDagOverlay`).
A client submits a multicast message ``m`` to its lowest common ancestor
(``m.lca()`` — the lowest-ranked destination).  The lca delivers ``m``
immediately and propagates it to the remaining destinations together with a
*history delta*; destinations deliver ``m`` only once they have every piece of
dependency information that could order another message before ``m``:

* **Strategy (a) — histories.**  Every delivered message is appended to the
  group's history DAG; histories travel (as diffs) with every envelope, so a
  destination learns orderings decided by groups it never talks to directly.

* **Strategy (b) — acks.**  A non-lca destination ``g`` sends an ``ack`` (with
  its history) to every higher destination ``h`` of the same message; ``h``
  waits for those acks before delivering, because ``g`` may have ordered other
  messages before ``m`` that ``h`` must respect.

* **Strategy (c) — notifs.**  When a group is about to forward ``m`` (or an
  ack for ``m``) and some *non-destination* descendant ``d`` sits between it
  and another destination, and the group has previously sent messages to
  ``d``, it sends a ``notif`` so that ``d`` pushes its own dependencies (acks)
  down to the destinations of ``m``.  Notified groups are carried in the
  envelopes so destinations know to wait for their acks as well.

  A notif ack is a snapshot of ``d``'s history when it answers, so ``d``
  answers *every* notifier, not only the first: a notified entry is a
  ``(group, notifier)`` pair and a destination waits for one ack per pair
  (this repo's reading of the paper's ``m.notifList``; DESIGN.md
  "Ordering: one ack per notifier").  Answering only the first notifier let
  a later notifier's pre-pivot orders go unreported and close global cycles.

The paper assumes reliable FIFO links between groups; this module does not
rely on the transport for them.  **Numbered channels**: every ``msg``,
``ack`` and ``notif`` a group sends to another group carries the next number
of that channel, and a receiver takes from each sending group — a ``msg``'s
lca, an ``ack``'s or ``notif``'s ``from_group`` — only the number after the
last one it took.  A repeated number is a duplicate and is dropped; a higher
one is a gap: it is dropped and counted (``stats["channel_gaps"]``), and
since the sender's numbers only climb, that channel stays stopped.  So a
run that loses envelopes is a prefix of a run on reliable FIFO links — the
paper's model — and a lost envelope costs liveness, never acyclic order
(DESIGN.md "Ordering: one ack per notifier over numbered channels").  A
group keeps one :class:`Channel` record per peer group: the last number
sent, the last number taken, and the history version shipped (``diff-hst``).
The records are group state, rebuilt by log replay like the rest of it;
client requests are not numbered.

On top of the paper's protocol: **batch carriers**.  A client may
coalesce same-destination submissions into one ordering unit
(:meth:`~repro.core.message.Message.batch_of`, shipped as a
:class:`~repro.core.message.FlexCastBatch` request by
:class:`~repro.core.batching.BatchingClient`).  The carrier flows through
every rule below as a single message — one history vertex, one msg/ack per
destination — and
:meth:`FlexCastGroup.a_deliver` fans it out into per-member application
deliveries, so batching amortizes envelope overhead without touching the
ordering logic (DESIGN.md "batching the delivery path").

The implementation below follows the paper's pseudo-code closely; method names
echo the pseudo-code (``a_deliver`` = ``a-deliver``, ``reprocess_queues``
= ``reprocess-queues``, …) to keep the correspondence auditable.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import DefaultDict, Deque, Dict, Hashable, List, Optional, Set, Tuple

from ..obs import STAGE_DELIVER, STAGE_ENQUEUE, STAGE_FANOUT, Observability, Tracer
from ..obs.registry import SIZE_BUCKETS, Histogram
from ..overlay.base import GroupId
from ..overlay.cdag import CDagOverlay
from ..protocols.base import (
    AtomicMulticastGroup,
    AtomicMulticastProtocol,
    DeliverySink,
    ProtocolError,
)
from ..sim.transport import Transport
from .history import History
from .message import (
    ClientRequest,
    EMPTY_DELTA,
    Envelope,
    FlexCastAck,
    FlexCastMsg,
    FlexCastNotif,
    HistoryDelta,
    Message,
    NotifiedPair,
)

#: Shared empty notified-set: the overwhelming majority of envelopes carry no
#: Strategy (c) notifications, so the send path reuses one immutable instance
#: instead of minting a fresh frozenset per hop.
_NO_NOTIFIED: frozenset = frozenset()


@dataclass(slots=True)
class PendingMessage:
    """Per-group protocol state about a not-yet-delivered multicast message.

    Mirrors the mutable fields the paper attaches to a message (``m.acks`` and
    ``m.notifList``); they are kept per group here because message objects are
    shared between simulated nodes and must stay immutable.
    """

    #: ``(group, notifier)`` of every ack received: the notifier a notif
    #: ack answers, ``None`` for a destination's own ack.
    acks: Set[NotifiedPair] = field(default_factory=set)
    #: ``(group, notifier)`` of every Strategy (c) notif sent about this
    #: message: each pair owes its own ack.
    notified: Set[NotifiedPair] = field(default_factory=set)
    #: True once the message envelope itself arrived and was enqueued.
    enqueued: bool = False


#: Observe every Nth non-empty diff in the size histogram (weighted by N so
#: the histogram still estimates the full population); see ``_outgoing``.
DIFF_SAMPLE_EVERY = 4


@dataclass(slots=True)
class Channel:
    """This group's record of one peer group: the numbered channel both
    ways and the ``diff-hst`` position toward it."""

    #: Number of the last envelope sent to the peer.
    sent: int = 0
    #: Number of the last envelope taken from the peer.
    taken: int = 0
    #: History journal version shipped to the peer so far.
    shipped: int = 0


@dataclass(slots=True)
class PendingNotification:
    """A received ``notif`` waiting for local open dependencies to resolve."""

    message: Message
    open_deps: Set[str]
    #: The group the notif came from, which the ack names.
    notifier: GroupId


class FlexCastGroup(AtomicMulticastGroup):
    """The FlexCast protocol logic for a single group.

    Parameters
    ----------
    group_id:
        This group's id (must belong to ``overlay``).
    overlay:
        The complete-DAG overlay shared by all groups.
    transport:
        Outbound communication channel (simulated or asyncio).
    sink:
        Application delivery callback.
    """

    def __init__(
        self,
        group_id: GroupId,
        overlay: CDagOverlay,
        transport: Transport,
        sink: DeliverySink,
    ) -> None:
        super().__init__(group_id, transport, sink)
        self.overlay = overlay
        self.history = History()
        #: One FIFO queue of not-yet-delivered messages per ancestor lca, plus
        #: a queue under this group's own id for client-submitted messages
        #: (the lca usually delivers them in the same event, but an open
        #: dependency may briefly defer them).
        self.queues: Dict[GroupId, Deque[Message]] = {
            ancestor: deque() for ancestor in overlay.ancestors(group_id)
        }
        self.queues[group_id] = deque()
        #: Per-message protocol state (acks received, notified groups).
        self.pending: Dict[str, PendingMessage] = {}
        #: member id -> carrier id for every batch this group knows of.
        #: Lets both enqueue paths absorb a client retrying one *member* as a
        #: plain request while its batch is still in flight (the member has
        #: no pending entry or history vertex of its own, and ordered as a
        #: second unit it would break batch atomicity at the carrier's
        #: fan-out).  Lifecycle mirrors :attr:`pending`:
        #: populated when a carrier's entry is created, pruned with it by GC.
        self._batch_members: Dict[str, str] = {}
        #: Notifications waiting for open dependencies (``pendNotif``).
        self.pending_notifications: List[PendingNotification] = []
        #: One :class:`Channel` per peer group this group has sent to or
        #: taken from (numbered channels, module docstring).
        self.channels: DefaultDict[GroupId, Channel] = defaultdict(Channel)
        #: Incrementally maintained ``open-dependencies`` set: ids of history
        #: vertices addressed to this group that it has not delivered yet.
        #: Updated on merge (additions), delivery (removal) and GC (removal),
        #: replacing the seed's full history scan.
        self._undelivered_to_me: Set[str] = set()
        #: Ancestor queues whose head may have become deliverable since the
        #: last :meth:`reprocess_queues` drain (dirty-set scheduling).
        self._dirty_queues: Set[GroupId] = set()
        # Statistics (exposed for tests, ablations and Figure 8 style reports).
        self.stats = {
            "msgs_received": 0,
            "msgs_sent": 0,
            "acks_received": 0,
            "notifs_received": 0,
            "notifs_sent": 0,
            "acks_sent": 0,
            "gc_pruned": 0,
            "journal_compacted": 0,
            "reprocess_passes": 0,
            # Envelopes refused because their channel skipped a number.
            "channel_gaps": 0,
            # Steady-state diffs are almost always empty (the tracker is up
            # to date); they are tallied here instead of as histogram
            # samples so per-send instrumentation stays a dict increment.
            "empty_diffs": 0,
        }
        #: Lifecycle tracer (``None`` = tracing off; set by attach_obs).
        #: Hot paths guard every trace hook on this attribute, so an
        #: uninstrumented group pays one ``is not None`` check at most.
        self._tracer: Optional[Tracer] = None
        #: Site tag stamped on trace events recorded by this group.
        self._site = f"g{group_id}"
        #: Diff-size histogram (``None`` until attach_obs registers it).
        self._diff_size_hist: Optional[Histogram] = None
        #: Sampling phase for the diff-size histogram; starts one short of
        #: the period so the very first non-empty diff is always observed
        #: (short runs still produce a populated histogram).
        self._diff_sample_tick = DIFF_SAMPLE_EVERY - 1

    # --------------------------------------------------------- observability
    def attach_obs(self, obs: Observability) -> None:
        """Attach the observability hub: counters, gauges, tracing.

        Everything registered here is pull-based — callback counters over
        the existing ``stats`` dict and callback gauges over state sizes
        the group already maintains — so attaching adds **no** hot-path
        work beyond the ``is not None`` tracer guards.  The two ``leak``
        gauges encode the PR-4/PR-5 hygiene fixes as standing invariants:
        they must read zero after any clean run (the fuzz harness's
        end-of-run leak oracle enforces exactly that).
        """
        super().attach_obs(obs)
        self._tracer = obs.tracer
        registry = obs.registry
        labels = {"group": str(self.group_id)}
        for key in self.stats:
            registry.counter(
                f"flexcast_{key}_total",
                f"FlexCast protocol event count: {key.replace('_', ' ')}.",
                labels,
                fn=(lambda k=key: self.stats[k]),  # noqa: B008 - bind key
            )
        registry.gauge(
            "flexcast_queue_depth",
            "Undelivered messages across all ancestor queues.",
            labels,
            fn=lambda: sum(len(q) for q in self.queues.values()),
        )
        registry.gauge(
            "flexcast_pending_size",
            "Per-message protocol-state entries currently held.",
            labels,
            fn=lambda: len(self.pending),
        )
        registry.gauge(
            "flexcast_member_index_size",
            "Batch member->carrier index entries currently held.",
            labels,
            fn=lambda: len(self._batch_members),
        )
        registry.gauge(
            "flexcast_open_dependencies",
            "History vertices addressed here and not yet delivered.",
            labels,
            fn=lambda: len(self._undelivered_to_me),
        )
        registry.gauge(
            "flexcast_pending_notifications",
            "Strategy (c) notifs parked behind open dependencies.",
            labels,
            fn=lambda: len(self.pending_notifications),
        )
        registry.gauge(
            "flexcast_leaked_pending_entries",
            "Pending entries whose id the history already forgot "
            "(leak invariant: must be zero).",
            labels,
            fn=self._leaked_pending_entries,
        )
        registry.gauge(
            "flexcast_member_index_orphans",
            "Member-index entries whose carrier has no pending entry "
            "(leak invariant: must be zero).",
            labels,
            fn=self._member_index_orphans,
        )
        self.history.register_metrics(registry, labels)
        self._diff_size_hist = registry.histogram(
            "flexcast_diff_size_items",
            "History-delta size (vertices + edges) per shipped non-empty "
            "diff (empty diffs are counted by flexcast_empty_diffs_total).",
            labels,
            bounds=SIZE_BUCKETS,
        )

    def _leaked_pending_entries(self) -> int:
        """Pending entries for ids the flush GC already forgot (leak)."""
        history = self.history
        return sum(1 for mid in self.pending if history.is_forgotten(mid))

    def _member_index_orphans(self) -> int:
        """Member-index entries whose carrier lost its pending entry (leak)."""
        pending = self.pending
        return sum(
            1 for carrier in self._batch_members.values() if carrier not in pending
        )

    # --------------------------------------------------------------- helpers
    def _pending_for(self, message: Message) -> PendingMessage:
        entry = self.pending.get(message.msg_id)
        if entry is None:
            entry = self.pending[message.msg_id] = PendingMessage()
            for member in message.members:
                self._batch_members[member.msg_id] = message.msg_id
        return entry

    def _resolved(self, msg_id: str) -> bool:
        """True iff this group is done with ``msg_id`` for good.

        Both records are permanent: the delivery registry covers everything
        delivered here (batch members and carriers included), the history's
        forgotten set everything the flush GC pruned — including pivots this
        group acked but was never a destination of.  An arrival for a
        resolved id is absorbed before any per-message state exists: such an
        id never re-enters the history, so no GC pass could prune what the
        arrival left behind.
        """
        return self.has_delivered(msg_id) or self.history.is_forgotten(msg_id)

    def lca_of(self, message: Message) -> GroupId:
        """The lowest common ancestor (entry group) of ``message``."""
        return self.overlay.lca(message.dst)

    def _merge_history(self, delta: HistoryDelta) -> None:
        """Merge an incoming delta and index its new open dependencies.

        Scanning only the delta's vertices keeps the update O(|delta|); the
        membership check filters duplicates and forgotten (GC'd) vertices
        that :meth:`History.merge_delta` refused to re-add.
        """
        if delta is None or delta.is_empty:
            return
        self.history.merge_delta(delta)
        me = self.group_id
        delivered = self._delivered_ids
        for mid, dst in delta.vertices:
            if me in dst and mid not in delivered and mid in self.history:
                self._undelivered_to_me.add(mid)

    def _mark_all_queues_dirty(self) -> None:
        self._dirty_queues.update(g for g, q in self.queues.items() if q)

    # ------------------------------------------------------------ entry points
    def on_client_request(self, message: Message) -> None:
        """A client submitted ``message`` to this group.

        The client is required to target the lca (Algorithm 2 line 1); a
        message submitted elsewhere indicates a routing bug.
        """
        if self.group_id not in message.dst:
            raise ProtocolError(
                f"group {self.group_id} received client message {message.msg_id} "
                f"addressed to {sorted(message.dst)}"
            )
        if self.lca_of(message) != self.group_id:
            raise ProtocolError(
                f"client sent {message.msg_id} to {self.group_id}, "
                f"but its lca is {self.lca_of(message)}"
            )
        self._enqueue_local(message)

    def on_envelope(self, sender: Hashable, envelope: Envelope) -> None:
        """Dispatch protocol envelopes (Algorithm 2); a group's envelope is
        processed only in its channel's order (:meth:`_in_order`)."""
        if isinstance(envelope, ClientRequest):
            self.on_client_request(envelope.message)
        elif isinstance(envelope, FlexCastMsg):
            lca = self.lca_of(envelope.message)
            if self._in_order(lca, envelope.seq):
                self._on_msg(envelope, lca)
        elif isinstance(envelope, FlexCastAck):
            if self._in_order(envelope.from_group, envelope.seq):
                self._on_ack(envelope)
        elif isinstance(envelope, FlexCastNotif):
            if self._in_order(envelope.from_group, envelope.seq):
                self._on_notif(envelope)
        else:
            raise ProtocolError(f"FlexCast group got unexpected envelope {envelope!r}")

    # ----------------------------------------------------------------- channels
    def _in_order(self, source: GroupId, seq: int) -> bool:
        """Take envelope number ``seq`` from ``source`` iff it is the next one.

        A number already taken is a duplicate, dropped without a trace.  A
        higher one is a gap: an envelope before it was lost, and taking this
        one could order what the lost one would have ordered differently.
        It is dropped and counted, and so is every later one from
        ``source``.  So is a number below 1: a frame written before
        envelopes were numbered."""
        channel = self.channels[source]
        last = channel.taken
        if seq == last + 1:
            channel.taken = seq
            return True
        if seq > last or seq < 1:
            self.stats["channel_gaps"] += 1
        return False

    def _outgoing(self, dest: GroupId) -> Tuple[int, HistoryDelta]:
        """The number and the ``diff-hst`` of the next envelope to ``dest``.

        The diff is the history journal past the version already shipped to
        ``dest``; a peer already shipped the current version (the common
        case) skips the journal.  This sits on the per-send hot path, so the
        bookkeeping is budgeted: empty diffs go to the ``empty_diffs`` stat
        (a dict increment), and non-empty sizes are observed 1-in-
        :data:`DIFF_SAMPLE_EVERY` with a compensating weight — an unbiased
        estimate of the distribution at a quarter of the histogram cost.
        This split is what holds per-send instrumentation inside the <=5%
        budget the CI bench gate enforces.
        """
        channel = self.channels[dest]
        channel.sent += 1
        history = self.history
        if channel.shipped < history.version:
            vertices, edges, channel.shipped = history.changes_since(channel.shipped)
            if vertices or edges:
                delta = HistoryDelta(vertices, edges)
                if self._diff_size_hist is not None:
                    self._diff_sample_tick += 1
                    if self._diff_sample_tick >= DIFF_SAMPLE_EVERY:
                        self._diff_sample_tick = 0
                        self._diff_size_hist.observe(
                            float(len(delta)), weight=DIFF_SAMPLE_EVERY
                        )
                return channel.sent, delta
        self.stats["empty_diffs"] += 1
        return channel.sent, EMPTY_DELTA

    # -------------------------------------------------------- msg / ack / notif
    def _on_msg(self, envelope: FlexCastMsg, lca: GroupId) -> None:
        """``upon receiving [msg, m, history]`` from its lca ``lca``."""
        message = envelope.message
        self.stats["msgs_received"] += 1
        if self.group_id not in message.dst:
            raise ProtocolError(
                f"group {self.group_id} received msg {message.msg_id} "
                f"not addressed to it (violates genuineness)"
            )
        self._merge_history(envelope.history)
        msg_id = message.msg_id
        if not (self._resolved(msg_id) or msg_id in self._batch_members):
            entry = self._pending_for(message)
            entry.notified.update(envelope.notified)
            if not entry.enqueued:
                self._enqueue(entry, message, lca, "msg")
        self._dirty_queues.add(lca)
        self.reprocess_queues()

    def _on_ack(self, envelope: FlexCastAck) -> None:
        """``upon receiving [ack, m, history] from ancestor a``."""
        message = envelope.message
        self.stats["acks_received"] += 1
        self._merge_history(envelope.history)
        if not self._resolved(message.msg_id):
            entry = self._pending_for(message)
            entry.acks.add((envelope.from_group, envelope.notifier))
            entry.notified.update(envelope.notified)
        # The ack relaxes this message's own ack-wait condition.
        self._dirty_queues.add(self.lca_of(message))
        self.reprocess_queues()

    def _on_notif(self, envelope: FlexCastNotif) -> None:
        """``upon receiving [notif, m, history]`` at a non-destination group."""
        message = envelope.message
        self.stats["notifs_received"] += 1
        self._merge_history(envelope.history)
        open_deps = self.open_dependencies()
        if open_deps:
            # We must first deliver our own outstanding messages, otherwise the
            # acks we send would carry incomplete dependency information.
            self.pending_notifications.append(
                PendingNotification(message, open_deps, envelope.from_group)
            )
        else:
            self._ack_notif(message, envelope.from_group)
        self.reprocess_queues()

    def _ack_notif(self, message: Message, notifier: GroupId) -> None:
        """Answer ``notifier``'s notif with an ack (``send-descendants``).

        This group is *not* a destination of ``message``, so its local flush
        GC may have forgotten the pivot's id already (GC order is per group
        — it says nothing about the destinations, which may still be waiting
        for this very ack).  The ack therefore always goes out;
        :meth:`send_notifs` keeps no state for a forgotten id.
        """
        self.send_descendants(message, ack=True, notifier=notifier)

    def _enqueue_local(self, message: Message) -> None:
        """Queue a client-submitted message at its lca and drain.

        The lca almost always delivers the message within this very call (it
        is the first destination to order it).  The queue only matters while
        an open dependency precedes it.  A retried batch *member* is
        absorbed: it will never be delivered as its own unit.
        """
        msg_id = message.msg_id
        if not (self._resolved(msg_id) or msg_id in self._batch_members):
            entry = self._pending_for(message)
            if not entry.enqueued:
                self._enqueue(entry, message, self.group_id, "local")
        self._dirty_queues.add(self.group_id)
        self.reprocess_queues()

    def _enqueue(
        self, entry: PendingMessage, message: Message, lca: GroupId, origin: str
    ) -> None:
        self.queues[lca].append(message)
        entry.enqueued = True
        if self._tracer is not None:
            self._tracer.record(
                message.trace,
                STAGE_ENQUEUE,
                self.transport.now(),
                self._site,
                origin,
            )

    # ----------------------------------------------------------- core functions
    def open_dependencies(self) -> Set[str]:
        """Messages addressed to this group present in the history but not yet
        delivered here (``open-dependencies``).

        O(answer): the set is maintained incrementally on merge/deliver/GC
        instead of re-scanning the whole history per call.
        """
        return set(self._undelivered_to_me)

    def a_deliver(self, message: Message) -> None:
        """Deliver ``message`` and propagate ordering information (``a-deliver``)."""
        if self._tracer is not None:
            self._tracer.record(
                message.trace, STAGE_DELIVER, self.transport.now(), self._site
            )
        self.history.record_delivery(message)
        self._undelivered_to_me.discard(message.msg_id)
        if message.members:
            # Batch fan-out: the carrier was ordered as one unit (one history
            # vertex); the application observes its members, delivered
            # back-to-back in submission order.  The fan-out is atomic within
            # this event, so a group delivers a batch all-or-nothing — a lost
            # batch degrades exactly like N lost messages, never into a
            # partial delivery.
            for member in message.members:
                # The delivered-guard is unreachable for compliant clients
                # (the enqueue guard's member index absorbs retries before
                # they can be ordered solo, so the fuzz oracle rightly
                # treats any non-contiguous batch as a violation).  It is
                # defense in depth against a *non-compliant* client that
                # submits a member both solo and inside a batch: contiguity
                # is already forfeit there, and integrity (deliver-once)
                # must win over crashing the group.
                if not self.has_delivered(member.msg_id):
                    if self._tracer is not None:
                        self._tracer.record(
                            member.trace,
                            STAGE_FANOUT,
                            self.transport.now(),
                            self._site,
                            message.msg_id,
                        )
                    self.deliver(member)
            # Integrity bookkeeping for the carrier id itself: re-submitted
            # or bounced duplicates of the batch check `has_delivered`
            # against it the way they do for any delivered id.
            self._delivered_ids.add(message.msg_id)
        else:
            self.deliver(message)

        # The head of its queue: a queue delivers in arrival order.
        lca = self.lca_of(message)
        self.queues[lca].popleft()
        self.send_descendants(message, ack=(lca != self.group_id))

        # Delivering this message may unblock pending notifications.
        still_pending: List[PendingNotification] = []
        for notif in self.pending_notifications:
            notif.open_deps.discard(message.msg_id)
            if notif.open_deps:
                still_pending.append(notif)
            else:
                self._ack_notif(notif.message, notif.notifier)
        self.pending_notifications = still_pending

        if message.is_flush:
            self._garbage_collect(message)

        # Removing this message from the open-dependency set may have
        # unblocked the head of any queue.
        self._mark_all_queues_dirty()

    def send_descendants(
        self, message: Message, ack: bool, notifier: Optional[GroupId] = None
    ) -> None:
        """Send ``msg`` or ``ack`` envelopes to the destinations above us
        (``send-descendants``), preceded by any required notifs.  An ack
        names the ``notifier`` it answers (``None``: this group is a
        destination)."""
        groups = self.send_notifs(message)
        # Almost every envelope carries no notifications; skip the per-hop
        # frozenset copy for that common case.
        notified = frozenset(groups) if groups else _NO_NOTIFIED
        for dest in self.overlay.descendants(self.group_id):
            if dest not in message.dst:
                continue
            seq, delta = self._outgoing(dest)
            if ack:
                envelope: Envelope = FlexCastAck(
                    message=message,
                    history=delta,
                    from_group=self.group_id,
                    seq=seq,
                    notifier=notifier,
                    notified=notified,
                )
                self.stats["acks_sent"] += 1
            else:
                envelope = FlexCastMsg(
                    message=message,
                    history=delta,
                    seq=seq,
                    notified=notified,
                )
                self.stats["msgs_sent"] += 1
            self.send(dest, envelope)

    def send_notifs(self, message: Message) -> Set[NotifiedPair]:
        """Strategy (c): notify non-destination descendants that must flush
        their dependencies toward ``message``'s destinations (``send-notifs``).

        Returns every ``(group, notifier)`` pair known for ``message`` so
        far.  A group another notifier already notified is notified again:
        this notif carries this group's history, whose messages to the
        notified group it must deliver before it acks, and its ack to the
        other notifier was a snapshot that held none of them.  The set lives
        in the message's pending entry; a group acking a pivot it is not a
        destination of has none, and gets one only when there is a pair to
        remember and the id is not resolved (the ack for a pivot the local
        GC already forgot still carries the set, but keeps nothing).
        """
        entry = self.pending.get(message.msg_id)
        notified: Set[NotifiedPair] = entry.notified if entry is not None else set()
        me = self.group_id
        # Only a descendant ranked below some other destination can hold
        # dependencies that destination must see: one rank slice.
        for dest in self.overlay.descendants_below(me, message.dst):
            if dest in message.dst or (dest, me) in notified:
                continue
            if not self.history.contains_message_to(dest):
                # We never communicated with `dest`; notifying it would break
                # minimality (genuineness) — and is unnecessary, because it
                # cannot hold dependencies we created.
                continue
            seq, delta = self._outgoing(dest)
            self.send(
                dest,
                FlexCastNotif(message=message, history=delta, from_group=me, seq=seq),
            )
            notified.add((dest, me))
            self.stats["notifs_sent"] += 1
        if entry is None and notified and not self._resolved(message.msg_id):
            self._pending_for(message).notified = notified
        return notified

    def reprocess_queues(self) -> None:
        """Repeatedly deliver queue heads whose dependencies are satisfied
        (``reprocess-queues``).

        Only *dirty* queues — those whose head's delivery condition may have
        changed since the last drain — are examined, instead of restarting a
        scan over every queue after each delivery.  The invariant is that a
        clean queue's head is not deliverable: every event that can relax a
        head's condition (enqueue, ack arrival, local delivery, GC) marks the
        affected queue(s) dirty.
        """
        self.stats["reprocess_passes"] += 1
        dirty = self._dirty_queues
        while dirty:
            queue = self.queues.get(dirty.pop())
            # a_deliver pops the head and re-marks all queues dirty.
            while queue and self._can_deliver(queue[0]):
                self.a_deliver(queue[0])

    def _can_deliver(self, message: Message) -> bool:
        """The paper's ``can-deliver``."""
        return self._acks_satisfied(message) and self._dependencies_satisfied(
            message
        )

    def _dependencies_satisfied(self, message: Message) -> bool:
        """True iff no undelivered message addressed to this group precedes
        ``message``.

        One forward walk shared by all open dependencies
        (:meth:`History.reached_from`): they sit at the new end of the DAG,
        the candidate's ancestors are the whole history.  A blocker that sits
        in a cycle with the candidate blocks it too: a merged cycle is a bug
        upstream, and a queue that stays stuck is how it shows.
        """
        msg_id = message.msg_id
        blocking = self._undelivered_to_me
        if not blocking or (len(blocking) == 1 and msg_id in blocking):
            return True
        return not self.history.reached_from(blocking - {msg_id}, (msg_id,))

    def _acks_satisfied(self, message: Message) -> bool:
        """``ancestors-to-ack ⊆ ancestors-that-acked`` without materialising
        either set — this runs once per queue-head check, every pass.

        The acks to wait for are every ancestor destination's own, except the
        lca's, and one per ``(group, notifier)`` pair whose notified group is
        an ancestor of this one (a notified group only acks to its own
        descendants)."""
        entry = self._pending_for(message)
        acks = entry.acks
        rank = self.overlay.rank
        my_rank = rank(self.group_id)
        lca = self.lca_of(message)
        for g in message.dst:
            if g != lca and (g, None) not in acks and rank(g) < my_rank:
                return False
        for pair in entry.notified:
            if pair not in acks and rank(pair[0]) < my_rank:
                return False
        return True

    # ------------------------------------------------------- garbage collection
    def _garbage_collect(self, flush: Message) -> None:
        """Prune everything ordered before a delivered flush message (§4.3).

        O(victims): the history hands back the removed ids directly (no
        before/after snapshot diff) and empties its change journal.  The
        flush was just shipped to every descendant (``a_deliver`` fans out
        first), so each peer this group sends to is at the current version.
        """
        compacted = self.history.journal_len
        victims = self.history.collect_garbage(flush.msg_id)
        self._undelivered_to_me -= victims
        for victim in victims:
            self.pending.pop(victim, None)
        if self._batch_members:
            # Member index entries live exactly as long as their carrier's
            # pending entry; retries of a pruned batch's members are still
            # absorbed by the permanent delivery record / forgotten set.
            self._batch_members = {
                member: carrier
                for member, carrier in self._batch_members.items()
                if carrier not in victims
            }
        self.stats["gc_pruned"] += len(victims)
        self.stats["journal_compacted"] += compacted

    # ------------------------------------------------------------- inspection
    def queue_sizes(self) -> Dict[GroupId, int]:
        """Number of undelivered messages per ancestor queue (monitoring)."""
        return {g: len(q) for g, q in self.queues.items()}

    def history_size(self) -> int:
        """Number of vertices currently retained in the history."""
        return len(self.history)


class FlexCastProtocol(AtomicMulticastProtocol):
    """Factory/deployment descriptor for FlexCast on a given C-DAG overlay."""

    name = "FlexCast"
    genuine = True

    def __init__(self, overlay: CDagOverlay) -> None:
        if not isinstance(overlay, CDagOverlay):
            raise TypeError("FlexCast requires a complete-DAG overlay")
        super().__init__(overlay)

    def create_group(
        self, group_id: GroupId, transport: Transport, sink: DeliverySink
    ) -> FlexCastGroup:
        return FlexCastGroup(group_id, self.overlay, transport, sink)

    def entry_groups(self, message: Message) -> List[GroupId]:
        """Clients submit a message to its lca only."""
        self.validate_message(message)
        return [self.overlay.lca(message.dst)]
