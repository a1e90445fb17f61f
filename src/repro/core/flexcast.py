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

On top of the paper's protocol a group holds two ordering authorities, and
:meth:`FlexCastGroup._blocker` sends every message past exactly one of them
(DESIGN.md "Ordering: pivot guard + exposure"):

* ``self.guard`` (:class:`~repro.core.pivot_guard.PivotGuard`) orders what
  nothing exposes.  It closes the Strategy (c) ack race: a notif-ack
  promises the pivot's destinations that this group's dependency
  contribution is final, so later local deliveries must not mint new
  orderings before an acked pivot.  Two pivots can impose contradictory
  waits, so the group keeps an escape timer and asks the guard which blocked
  head to release once a stand-off provably cannot resolve, and a dependency
  cycle that arrives in a merged delta is delivered through instead of
  honoured (poison tolerance).  With the guard alone, global acyclic order
  holds except under one conflict class — messages whose pairs each meet at
  exactly one group — where it is a *detected* anomaly, never a lost
  delivery.

* ``self.ts`` (:class:`~repro.core.timestamps.TimestampAuthority`, present
  iff the deployment's :class:`~repro.core.timestamps.Exposure` covers
  anything) closes that class.  A global message whose destination set is
  exposed additionally acquires a final Skeen timestamp from its destination
  groups (proposals piggybacked on the msg/ack traffic), and contested
  deliveries follow the global ``(final timestamp, id)`` order.  It needs
  neither escape timer nor poison tolerance: a total order has no stand-offs
  and no cycles.  The deployment picks what is exposed — nothing (the paper's
  protocol, bit-identical to a group with no authority at all), the hot
  conflict components of a declared shape universe, or every global message
  — and pays the paper's convoy effect (§5) only for what it exposes.

Also on top of the paper's protocol: **batch carriers**.  A client may
coalesce same-destination submissions into one ordering unit
(:meth:`~repro.core.message.Message.batch_of`, shipped as a
:class:`~repro.core.message.FlexCastBatch` request by
:class:`~repro.core.batching.BatchingClient`).  The carrier flows through
every rule below as a single message — one pivot, one timestamp convoy, one
history vertex, one msg/ack per destination — and
:meth:`FlexCastGroup.a_deliver` fans it out into per-member application
deliveries, so batching amortizes envelope overhead without touching the
ordering logic (DESIGN.md "batching the delivery path").

The implementation below follows the paper's pseudo-code closely; method names
echo the pseudo-code (``a_deliver`` = ``a-deliver``, ``reprocess_queues``
= ``reprocess-queues``, …) to keep the correspondence auditable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Hashable, List, Optional, Sequence, Set, Tuple

from ..obs import (
    STAGE_DELIVER,
    STAGE_ENQUEUE,
    STAGE_FANOUT,
    STAGE_PIVOT_WAIT,
    STAGE_TS_WAIT,
    Observability,
    Tracer,
)
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
from .history import History, HistoryDiffTracker
from .message import (
    ClientRequest,
    Envelope,
    FlexCastAck,
    FlexCastMsg,
    FlexCastNotif,
    FlexCastTsPropose,
    HistoryDelta,
    HistorySnapshotFrame,
    Message,
    TsProposal,
)
from .pivot_guard import PivotGuard
from .timestamps import Exposure, TimestampAuthority

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

    #: Groups whose ack for this message has been received.
    acks: Set[GroupId] = field(default_factory=set)
    #: Groups that were notified (Strategy (c)) and therefore must also ack.
    notified: Set[GroupId] = field(default_factory=set)
    #: True once the message envelope itself arrived and was enqueued.
    enqueued: bool = False


#: Trace stage recorded for a head :meth:`FlexCastGroup._blocker` found waiting
#: on an ordering authority (the pivot guard, the ts-propose convoy).
_WAIT_STAGES = {"guard": STAGE_PIVOT_WAIT, "ts": STAGE_TS_WAIT}

#: Observe every Nth non-empty diff in the size histogram (weighted by N so
#: the histogram still estimates the full population); see ``_diff_for``.
DIFF_SAMPLE_EVERY = 4


@dataclass(slots=True)
class PendingNotification:
    """A received ``notif`` waiting for local open dependencies to resolve."""

    message: Message
    open_deps: Set[str]


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
    exposure:
        What the timestamp authority orders (default: nothing).
    """

    def __init__(
        self,
        group_id: GroupId,
        overlay: CDagOverlay,
        transport: Transport,
        sink: DeliverySink,
        exposure: Exposure = Exposure.none(),
    ) -> None:
        super().__init__(group_id, transport, sink)
        self.overlay = overlay
        #: Which destination sets the timestamp authority orders (module
        #: docstring); one value shared by every group of the deployment.
        self.exposure = exposure
        #: Skeen-timestamp ordering authority, present iff something is
        #: exposed; :meth:`_timestamped` decides per message.  With nothing
        #: exposed the code path is bit-identical to the paper's protocol.
        self.ts: Optional[TimestampAuthority] = (
            TimestampAuthority(group_id) if exposure else None
        )
        #: Orders every message the authority above does not: the Strategy
        #: (c) pivots this group has acked and what they oblige it to.
        self.guard = PivotGuard()
        self.history = History()
        #: One FIFO queue of not-yet-delivered messages per ancestor lca, plus
        #: a queue under this group's own id for client-submitted messages
        #: (the lca usually delivers them in the same event, but the pivot
        #: guard may briefly defer them behind an in-flight predecessor).
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
        #: ``diff-hst`` bookkeeping per descendant.
        self.diff_tracker = HistoryDiffTracker()
        #: Incrementally maintained ``open-dependencies`` set: ids of history
        #: vertices addressed to this group that it has not delivered yet.
        #: Updated on merge (additions), delivery (removal) and GC (removal),
        #: replacing the seed's full history scan.
        self._undelivered_to_me: Set[str] = set()
        #: Ancestor queues whose head may have become deliverable since the
        #: last :meth:`reprocess_queues` drain (dirty-set scheduling).
        self._dirty_queues: Set[GroupId] = set()
        #: Handle of the guard's escape timer while a head is guard-blocked
        #: (at most one in flight; see :meth:`_guard_escape_tick`).
        self._escape_timer = None
        # Statistics (exposed for tests, ablations and Figure 8 style reports).
        self.stats = {
            "msgs_received": 0,
            "msgs_sent": 0,
            "acks_received": 0,
            "notifs_received": 0,
            "notifs_sent": 0,
            "acks_sent": 0,
            # Promise-maintenance re-acks (end of a_deliver), a subset of
            # acks_sent: a delivery turned out to precede an acked pivot.
            "reacks_sent": 0,
            "gc_pruned": 0,
            "journal_compacted": 0,
            "guard_escapes": 0,
            "ts_proposals_sent": 0,
            "ts_proposals_received": 0,
            "reprocess_passes": 0,
            "pivot_guard_stalls": 0,
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
            "flexcast_notif_pivots",
            "Acked pivots the pivot-consistency guard is honouring.",
            labels,
            fn=lambda: len(self.guard.pivots),
        )
        registry.gauge(
            "flexcast_ts_pending",
            "Timestamp entries awaiting a final timestamp.",
            labels,
            fn=lambda: self.ts.pending_count() if self.ts is not None else 0,
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

    def _diff_for(self, dest: GroupId) -> HistoryDelta:
        """``diff-hst`` for ``dest``, observing the delta size when attached.

        This sits on the per-send hot path, so the bookkeeping is budgeted:
        empty diffs go to the ``empty_diffs`` stat (a dict increment), and
        non-empty sizes are observed 1-in-:data:`DIFF_SAMPLE_EVERY` with a
        compensating weight — an unbiased estimate of the distribution at a
        quarter of the histogram cost.  This split is what holds per-send
        instrumentation inside the <=5% budget the CI bench gate enforces.
        """
        delta = self.diff_tracker.diff_for(dest, self.history)
        if not delta.vertices and not delta.edges:
            self.stats["empty_diffs"] += 1
        elif self._diff_size_hist is not None:
            self._diff_sample_tick += 1
            if self._diff_sample_tick >= DIFF_SAMPLE_EVERY:
                self._diff_sample_tick = 0
                self._diff_size_hist.observe(
                    float(len(delta)), weight=DIFF_SAMPLE_EVERY
                )
        return delta

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
        for mid, dst in delta.iter_vertices():
            if me in dst and mid not in delivered and mid in self.history:
                self._undelivered_to_me.add(mid)
                if self.ts is not None and len(dst) > 1:
                    # A merged delta revealed a global message addressed to
                    # us before its own envelope arrived: if it is exposed,
                    # propose now so its final timestamp converges early
                    # (the vertex carries everything a proposal needs).
                    self._acquire_timestamp(Message(msg_id=mid, dst=dst))
        # A merge can *relax* a delivery condition, not only tighten it: a
        # blocked candidate may gain its own path to a pivot (guard
        # exemption), or a new edge may close a cycle that voids a blocker
        # (poison tolerance).  Any queue head may therefore have become
        # deliverable, not only the arriving envelope's own.
        self._mark_all_queues_dirty()

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
        if not self.exposure.admits(message.dst):
            raise ProtocolError(
                f"{message.msg_id} is addressed to {sorted(message.dst)}, "
                f"which is not a shape of the declared universe "
                f"{sorted(map(sorted, self.exposure.universe or ()))}"
            )
        self._enqueue_local(message)

    def on_envelope(self, sender: Hashable, envelope: Envelope) -> None:
        """Dispatch protocol envelopes (Algorithm 2)."""
        if isinstance(envelope, ClientRequest):
            self.on_client_request(envelope.message)
        elif isinstance(envelope, FlexCastMsg):
            self._on_msg(envelope)
        elif isinstance(envelope, FlexCastAck):
            self._on_ack(envelope)
        elif isinstance(envelope, FlexCastNotif):
            self._on_notif(envelope)
        elif isinstance(envelope, FlexCastTsPropose):
            self._on_ts_propose(envelope)
        elif isinstance(envelope, HistorySnapshotFrame):
            self._on_history_snapshot(envelope)
        else:
            raise ProtocolError(f"FlexCast group got unexpected envelope {envelope!r}")

    # -------------------------------------------------------- msg / ack / notif
    def _on_msg(self, envelope: FlexCastMsg) -> None:
        """``upon receiving [msg, m, history]`` at a non-lca destination."""
        message = envelope.message
        self.stats["msgs_received"] += 1
        if self.group_id not in message.dst:
            raise ProtocolError(
                f"group {self.group_id} received msg {message.msg_id} "
                f"not addressed to it (violates genuineness)"
            )
        if self.lca_of(message) == self.group_id:
            # Only clients submit at the lca; other groups never forward here.
            self._enqueue_local(message)
            return
        self._acquire_timestamp(message)
        self._observe_proposals(message, envelope.ts_proposals)
        self._merge_history(envelope.history)
        msg_id = message.msg_id
        if not (self._resolved(msg_id) or msg_id in self._batch_members):
            entry = self._pending_for(message)
            entry.notified.update(envelope.notified)
            if not entry.enqueued:
                self._enqueue(entry, message, self.lca_of(message), "msg")
        self._dirty_queues.add(self.lca_of(message))
        self.reprocess_queues()

    def _on_ack(self, envelope: FlexCastAck) -> None:
        """``upon receiving [ack, m, history] from ancestor a``."""
        message = envelope.message
        self.stats["acks_received"] += 1
        self._acquire_timestamp(message)
        self._observe_proposals(message, envelope.ts_proposals)
        self._merge_history(envelope.history)
        if not self._resolved(message.msg_id):
            entry = self._pending_for(message)
            entry.acks.add(envelope.from_group)
            entry.notified.update(envelope.notified)
        # _merge_history marked all queues dirty; the ack additionally
        # relaxes this message's own ack-wait condition.
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
                PendingNotification(message=message, open_deps=open_deps)
            )
        else:
            self._ack_notif(message)
        # The merged delta may have relaxed (or tightened) guard decisions.
        self.reprocess_queues()

    def _ack_notif(self, message: Message) -> None:
        """Answer a notif with the promised ack (``send-descendants``).

        The ack is a *promise*: the pivot's destinations will deliver relying
        on this group's dependency contribution being final, so from here on
        the pivot binds this group's delivery order (``self.guard``).

        This group is *not* a destination of ``message``, so its local flush
        GC may have forgotten the pivot's id already (GC order is per group
        — it says nothing about the destinations, which may still be waiting
        for this very ack).  The ack therefore always goes out;
        :meth:`send_notifs` keeps no state for a forgotten id.
        """
        self.guard.register(message)
        self.send_descendants(message, ack=True)

    def _on_history_snapshot(self, envelope: HistorySnapshotFrame) -> None:
        """A packed live history in one frame: legacy input only.

        Nothing sends one any more; a WAL written while replica restarts
        ordered one through the log still holds it, and replays it here.
        Merging is idempotent (duplicates and forgotten ids are filtered).
        """
        self._merge_history(envelope.delta)
        self.reprocess_queues()

    def _on_ts_propose(self, envelope: FlexCastTsPropose) -> None:
        """Another destination's Skeen proposal for an exposed ``message``.

        Proposals are rank-independent (they depend only on the destination
        set), so this handler has no rank preconditions.
        """
        message = envelope.message
        self.stats["ts_proposals_received"] += 1
        if self.group_id not in message.dst:
            raise ProtocolError(
                f"group {self.group_id} received a timestamp proposal for "
                f"{message.msg_id} addressed to {sorted(message.dst)}"
            )
        if self.ts is None:
            # Groups that disagree on the exposure are an invalid deployment:
            # one that never proposes blocks every timestamp decision forever.
            raise ProtocolError(
                f"group {self.group_id} exposes nothing but received "
                f"a timestamp proposal for {message.msg_id}"
            )
        self._acquire_timestamp(message)
        self._observe_proposals(message, ((envelope.from_group, envelope.timestamp),))
        self.reprocess_queues()

    def _acquire_timestamp(self, message: Message) -> None:
        """First-contact Skeen proposal for an exposed message.

        Piggybacks on whatever made this group learn of ``message`` (client
        request, msg/ack envelope, merged history vertex, or a peer's
        proposal) and broadcasts the local timestamp to every other
        destination.  Duplicate contacts are absorbed by the authority, so
        re-routes, bounces and duplicated envelopes never mint a second
        proposal.
        """
        if not self._timestamped(message):
            return
        if self._resolved(message.msg_id):
            return
        local_ts = self.ts.propose(message.msg_id, message.dst)
        if local_ts is None:
            return
        # Proposing needs only the message's identity and destination set, so
        # the payload is stripped from the broadcast — re-shipping it |dst|-1
        # times per proposer would dwarf the ~41-byte envelope the traffic
        # accounting (and DESIGN.md's overhead claim) budget for.  The `msg`
        # envelope remains the single payload carrier.
        probe = Message(msg_id=message.msg_id, dst=message.dst)
        for dest in message.dst:
            if dest == self.group_id:
                continue
            self.send(
                dest,
                FlexCastTsPropose(
                    message=probe,
                    timestamp=local_ts,
                    from_group=self.group_id,
                ),
            )
            self.stats["ts_proposals_sent"] += 1
        # Proposing can decide immediately (early proposals completed the
        # set), which may relax any queue head's timestamp gate.
        self._mark_all_queues_dirty()

    def _observe_proposals(
        self, message: Message, proposals: Sequence[TsProposal]
    ) -> None:
        """Max-merge piggybacked/direct proposals for ``message``.

        A recorded proposal *raises* the message's effective timestamp (or
        decides it), which can unblock a head in **any** queue — the convoy
        gate compares across the whole pending set — so every queue is
        re-marked dirty on change.
        """
        if self.ts is None or not proposals:
            return
        if self._resolved(message.msg_id):
            # Late/duplicated proposals for a resolved (possibly already
            # garbage-collected) message: advance the clock (Lamport receive
            # rule) but never buffer state that nothing would clean up.
            self.ts.clock = max(
                self.ts.clock, max(timestamp for _, timestamp in proposals)
            )
            return
        changed = False
        for group, timestamp in proposals:
            changed = self.ts.observe(message.msg_id, group, timestamp) or changed
        if changed:
            self._mark_all_queues_dirty()

    def _timestamped(self, message: Message) -> bool:
        """True iff ``message`` is ordered by the timestamp authority (and
        therefore not by the pivot guard) — the only reader of the exposure
        on the delivery path."""
        return self.ts is not None and self.exposure.covers(message.dst)

    def _enqueue_local(self, message: Message) -> None:
        """Queue a client-submitted message at its lca and drain.

        The lca almost always delivers the message within this very call (it
        is the first destination to order it).  The queue only matters when
        the pivot guard defers it — or, for an exposed message, while its
        final timestamp is still being acquired: delivering it *now* would
        slot it before an in-flight message that this group already knows
        precedes a notif pivot, retroactively invalidating an ack it has
        sent.

        The timestamp is acquired only for messages that actually enter the
        queue.  For every absorbed duplicate the acquisition was a no-op
        anyway (the authority refuses duplicate proposals; delivered and
        forgotten ids are rejected up front) — except a retried batch
        *member*, a fresh id that will never be delivered as its own unit:
        proposing for it would park an undeliverable entry at the convoy
        gate's head and stall every later global message.
        """
        msg_id = message.msg_id
        if not (self._resolved(msg_id) or msg_id in self._batch_members):
            entry = self._pending_for(message)
            if not entry.enqueued:
                self._acquire_timestamp(message)
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
        # Promises made before this delivery; acks sent *during* it (parked
        # notif flushes below) already carry this message in their diff.
        prior_pivots = list(self.guard.pivots.values())
        if self._tracer is not None:
            self._tracer.record(
                message.trace, STAGE_DELIVER, self.transport.now(), self._site
            )
        self.history.record_delivery(message)
        self._undelivered_to_me.discard(message.msg_id)
        self.guard.delivered(message.msg_id)
        if message.members:
            # Batch fan-out: the carrier was ordered as one unit (one pivot,
            # one timestamp, one history vertex); the application observes
            # its members, delivered back-to-back in submission order.  The
            # fan-out is atomic within this event, so a group delivers a
            # batch all-or-nothing — a lost batch degrades exactly like N
            # lost messages, never into a partial delivery.
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

        # Usually the head; exposed messages deliver in (final ts, id) order,
        # which may legally invert the FIFO arrival order within a queue.
        queue = self.queues[self.lca_of(message)]
        for index, queued in enumerate(queue):
            if queued.msg_id == message.msg_id:
                del queue[index]
                break
        self.send_descendants(message, ack=(self.lca_of(message) != self.group_id))
        if self._timestamped(message):
            # Retire the timestamp entry only after the outgoing msg/ack
            # envelopes were built, so they still piggyback the full
            # proposal set for destinations that missed a direct proposal.
            self.ts.complete(message.msg_id)

        # Delivering this message may unblock pending notifications.
        still_pending: List[PendingNotification] = []
        for notif in self.pending_notifications:
            notif.open_deps.discard(message.msg_id)
            if notif.open_deps:
                still_pending.append(notif)
            else:
                self._ack_notif(notif.message)
        self.pending_notifications = still_pending

        if message.is_flush:
            self._garbage_collect(message)

        if prior_pivots:
            # Promise maintenance: acks are idempotent and diffs incremental,
            # so re-acking a pivot this delivery precedes is cheap and monotone.
            first_acks = self.stats["acks_sent"]
            for pivot in self.guard.reack_targets(
                message.msg_id, prior_pivots, self.history
            ):
                self.send_descendants(pivot, ack=True)
            self.stats["reacks_sent"] += self.stats["acks_sent"] - first_acks

        # Removing this message from the open-dependency set may have
        # unblocked the head of any queue.
        self._mark_all_queues_dirty()

    def send_descendants(self, message: Message, ack: bool) -> None:
        """Send ``msg`` or ``ack`` envelopes to the destinations above us
        (``send-descendants``), preceded by any required notifs."""
        groups = self.send_notifs(message)
        # Almost every envelope carries no notifications; skip the per-hop
        # frozenset copy for that common case.
        notified = frozenset(groups) if groups else _NO_NOTIFIED
        ts_proposals: Tuple[TsProposal, ...] = (
            self.ts.proposals_of(message.msg_id)
            if self._timestamped(message)
            else ()
        )
        for dest in self.overlay.descendants(self.group_id):
            if dest not in message.dst:
                continue
            delta = self._diff_for(dest)
            if ack:
                envelope: Envelope = FlexCastAck(
                    message=message,
                    history=delta,
                    from_group=self.group_id,
                    notified=notified,
                    ts_proposals=ts_proposals,
                )
                self.stats["acks_sent"] += 1
            else:
                envelope = FlexCastMsg(
                    message=message, history=delta, notified=notified,
                    ts_proposals=ts_proposals,
                )
                self.stats["msgs_sent"] += 1
            self.send(dest, envelope)

    def send_notifs(self, message: Message) -> Set[GroupId]:
        """Strategy (c): notify non-destination descendants that must flush
        their dependencies toward ``message``'s destinations (``send-notifs``).

        Returns every group notified about ``message`` so far.  The set lives
        in the message's pending entry; a group acking a pivot it is not a
        destination of has none, and gets one only when there is a notified
        group to remember and the id is not resolved (the ack for a pivot the
        local GC already forgot still carries the set, but keeps nothing).
        """
        entry = self.pending.get(message.msg_id)
        notified: Set[GroupId] = entry.notified if entry is not None else set()
        # Only a descendant ranked below some other destination can hold
        # dependencies that destination must see: one rank slice.
        for dest in self.overlay.descendants_below(self.group_id, message.dst):
            if dest in message.dst or dest in notified:
                continue
            if not self.history.contains_message_to(dest):
                # We never communicated with `dest`; notifying it would break
                # minimality (genuineness) — and is unnecessary, because it
                # cannot hold dependencies we created.
                continue
            delta = self._diff_for(dest)
            self.send(
                dest,
                FlexCastNotif(
                    message=message,
                    history=delta,
                    from_group=self.group_id,
                ),
            )
            notified.add(dest)
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
        guard_blocked = False
        while dirty:
            queue = self.queues.get(dirty.pop())
            if not queue:
                continue
            blocker = self._drain(queue)
            if blocker == "guard":
                guard_blocked = True
                self.stats["pivot_guard_stalls"] += 1
            if blocker in _WAIT_STAGES and self._tracer is not None:
                self._tracer.record(
                    queue[0].trace,
                    _WAIT_STAGES[blocker],
                    self.transport.now(),
                    self._site,
                )
        if guard_blocked and self._escape_timer is None:
            self._escape_timer = self.transport.schedule(
                PivotGuard.GRACE_MS, self._guard_escape_tick
            )

    def _drain(self, queue: Deque[Message]) -> Optional[str]:
        """Deliver from ``queue`` while something in it can go; return what
        blocks the head that is left (``None`` once the queue is empty)."""
        ts = self.ts
        blocker: Optional[str] = None
        if ts is None or not ts.pending_count():
            while queue and (blocker := self._blocker(queue[0])) is None:
                # a_deliver pops the head and re-marks all queues dirty.
                self.a_deliver(queue[0])
            return blocker
        # Some undelivered message is timestamped, and the timestamp order
        # may invert the FIFO arrival order within a queue (a later arrival
        # can hold a smaller final timestamp), so a blocked head must not
        # wall off a deliverable message behind it — scan the whole queue
        # and restart after every delivery.
        while queue:
            # Only the authority's unique minimum-key message can pass the
            # convoy gate, so other timestamped candidates are skipped
            # without running the full O(|pending|) gate per entry (a
            # contested burst would otherwise make each dirty pass quadratic
            # in the queue).  Non-pending timestamped entries fall through so
            # _blocker can flag the invariant breach.
            nxt = ts.next_deliverable()
            head_blocker: Optional[str] = None
            for message in list(queue):
                if (
                    message.msg_id != nxt
                    and self._timestamped(message)
                    and ts.is_pending(message.msg_id)
                ):
                    blocker = "ts"
                else:
                    blocker = self._blocker(message)
                if blocker is None:
                    # a_deliver unlinks the message from the queue.
                    self.a_deliver(message)
                    break
                head_blocker = head_blocker or blocker
            else:
                return head_blocker
        return None

    def _guard_escape_tick(self) -> None:
        """Break a guard stand-off that outlived the grace period: release
        the head :meth:`PivotGuard.pick_escape` names, or keep waiting."""
        self._escape_timer = None
        blocked_heads = [
            queue[0].msg_id
            for queue in self.queues.values()
            if queue and self._blocker(queue[0]) == "guard"
        ]
        released = self.guard.pick_escape(
            blocked_heads, self._undelivered_to_me, self.history, self.delivered_count
        )
        if released is not None:
            self.stats["guard_escapes"] += 1
            self._mark_all_queues_dirty()
            self.reprocess_queues()
        elif blocked_heads:
            self._escape_timer = self.transport.schedule(
                PivotGuard.GRACE_MS, self._guard_escape_tick
            )

    def _blocker(self, message: Message) -> Optional[str]:
        """The paper's ``can-deliver``, naming the first condition that holds
        ``message`` back — ``"acks"``, ``"deps"``, ``"ts"`` or ``"guard"`` —
        or ``None`` if it can go."""
        if not self._acks_satisfied(message):
            return "acks"
        if not self._dependencies_satisfied(message):
            return "deps"
        if self._timestamped(message):
            # The timestamp authority subsumes the pivot guard for the
            # messages it orders.  The convoy gate delivers contested
            # messages in ``(final ts, id)`` order — a *global* total order
            # — so any ordering this delivery mints is consistent
            # everywhere and the guard's concern (a new pre-pivot ordering
            # closing a cycle) cannot materialise.  Contradictory pivot
            # waits, which the guard can only escape heuristically, are
            # broken by the timestamp tie instead.  This is sound because
            # exposure is component-closed: an exposed message never meets
            # a guard-ordered one at any group, so skipping the guard here
            # cannot invalidate a guard promise about a mixed pair.
            assert self.ts is not None
            if not self.ts.is_pending(message.msg_id):
                # Every enqueue path proposes on first contact, and the
                # authority completes a message only at delivery (which also
                # unlinks it from its queue), so a queued global message
                # without a pending entry is an invariant breach.  Fail
                # loudly: delivering it anyway would be exactly the unordered
                # delivery exposure exists to rule out.
                raise ProtocolError(
                    f"group {self.group_id}: queued global message "
                    f"{message.msg_id} has no timestamp entry"
                )
            # Convoy gate: deliver in global ``(final ts, id)`` order.
            return None if self.ts.deliverable(message.msg_id) else "ts"
        if not self.guard.allows(message.msg_id, self._undelivered_to_me, self.history):
            return "guard"
        return None

    def _dependencies_satisfied(self, message: Message) -> bool:
        """True iff no undelivered message addressed to this group precedes
        ``message``.

        One forward walk shared by all open dependencies
        (:meth:`History.reached_from`): they sit at the new end of the DAG,
        the candidate's ancestors are the whole history.
        """
        msg_id = message.msg_id
        blocking = self._undelivered_to_me
        if not blocking or (len(blocking) == 1 and msg_id in blocking):
            return True
        history = self.history
        others = blocking - {msg_id}
        satisfied = not history.reached_from(others, (msg_id,))
        if not satisfied and not self._timestamped(message):
            # Poison tolerance: a blocking "predecessor" that is *also* a
            # descendant of the candidate sits in a delivery cycle with it —
            # a merged delta carried an upstream acyclic-order violation this
            # group can neither verify nor repair.  Honouring contradictory
            # constraints would block the queue forever and turn one ordering
            # violation into an unbounded lost-delivery cascade (the pre-fix
            # deadlock), so cycle-void blockers are ignored; genuine acyclic
            # blockers still hold the candidate back.
            #
            # A timestamped candidate deliberately does NOT tolerate poison:
            # the authority makes delivery cycles among the messages it
            # orders impossible, so a cycle-contradictory blocker would
            # indicate a genuine protocol bug — blocking (and failing the
            # fuzz liveness oracle) is the loud outcome a guaranteed
            # property wants, not deliver-through.
            cyclic = history.reached_from((msg_id,), others)
            satisfied = not history.reached_from(others - cyclic, (msg_id,))
        return satisfied

    def _acks_satisfied(self, message: Message) -> bool:
        """``ancestors-to-ack ⊆ ancestors-that-acked`` without materialising
        either set — this runs once per queue-head check, every pass.

        The groups to wait for are every ancestor destination except the
        lca, and every notified group that is an ancestor of this one (a
        notified group only acks to its own descendants)."""
        entry = self._pending_for(message)
        acks = entry.acks
        rank = self.overlay.rank
        my_rank = rank(self.group_id)
        lca = self.lca_of(message)
        for g in message.dst:
            if g != lca and g not in acks and rank(g) < my_rank:
                return False
        for g in entry.notified:
            if g not in acks and rank(g) < my_rank:
                return False
        return True

    # ------------------------------------------------------- garbage collection
    def _garbage_collect(self, flush: Message) -> None:
        """Prune everything ordered before a delivered flush message (§4.3).

        O(victims): the history hands back the removed ids directly (no
        before/after snapshot diff) and the diff tracker compacts the change
        journal up to the lowest descendant watermark.
        """
        victims = self.history.collect_garbage(flush.msg_id)
        compacted = self.diff_tracker.forget(victims, history=self.history)
        self._undelivered_to_me -= victims
        if self.ts is not None:
            # The history's forgotten-set keeps pruned ids from re-proposing
            # (checked in _acquire_timestamp), so the authority can shed its
            # completed-memory for them.
            self.ts.forget(victims)
        self.guard.forget(victims)
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

    def __init__(
        self,
        overlay: CDagOverlay,
        exposure: Exposure = Exposure.none(),
    ) -> None:
        if not isinstance(overlay, CDagOverlay):
            raise TypeError("FlexCast requires a complete-DAG overlay")
        super().__init__(overlay)
        #: What the timestamp authority orders (module docstring).  Built
        #: once here and handed to every group: exposure is a pure function
        #: of a message's shape, so sharing it is what makes the decision
        #: consistent deployment-wide.  A declared universe must cover every
        #: global destination set the workload can submit.
        self.exposure = exposure

    def create_group(
        self, group_id: GroupId, transport: Transport, sink: DeliverySink
    ) -> FlexCastGroup:
        return FlexCastGroup(
            group_id, self.overlay, transport, sink, exposure=self.exposure
        )

    def entry_groups(self, message: Message) -> List[GroupId]:
        """Clients submit a message to its lca only."""
        self.validate_message(message)
        return [self.overlay.lca(message.dst)]
