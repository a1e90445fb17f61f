"""Skeen-style timestamp ordering authority (shared core).

Extracted from the Distributed baseline (:mod:`repro.protocols.skeen`) so the
same tested implementation serves two deployments:

* :class:`~repro.protocols.skeen.SkeenGroup` — the paper's Distributed
  protocol, where *every* message is ordered by final timestamps; and
* FlexCast's *exposed* traffic (:mod:`repro.core.flexcast`): global messages
  whose destination set an :class:`Exposure` covers additionally acquire
  final timestamps, and the delivery gate orders them by those too
  (DESIGN.md "Ordering: one ack per notifier + exposure").

The authority implements the timestamp half of Skeen's algorithm for one
group:

1. :meth:`propose` assigns a local logical timestamp to a message on first
   contact (duplicate proposals are refused, which is what makes envelope
   duplication harmless);
2. :meth:`observe` max-merges remote proposals into the Lamport clock and the
   per-message proposal set; once proposals from *every* destination are in,
   the final timestamp is their maximum;
3. :meth:`deliverable` is the *convoy wait*: a decided message may only be
   delivered once no other pending message could still obtain a smaller
   ``(final timestamp, id)`` key.  Because each group's clock is max-merged
   past every final timestamp it has seen, a message proposed later can never
   undercut one already delivered — the delivered subsequence of timestamped
   messages at each group is strictly increasing in ``(ts, id)``, a *global*
   total order, which is exactly why the union delivery relation over
   timestamped messages cannot contain a cycle.

The authority is deliberately overlay-agnostic: timestamps are a property of
a message's destination set, not of any rank order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..overlay.base import GroupId

#: Sort key every delivery decision uses: ``(timestamp, msg_id)``.  The id
#: component makes the order total — two messages can tie on the timestamp
#: but never on the key.
TimestampKey = Tuple[int, str]

def _hot_conflict_groups(shapes: Sequence[FrozenSet[GroupId]]) -> FrozenSet[GroupId]:
    """Union of the groups of every *hot* conflict component.

    Declared shapes are nodes of a graph with an edge wherever two shapes
    share a group; a connected component is hot when some pair inside it
    intersects in exactly one group (the 3-cycle conflict class).  Groups of
    different components are disjoint by construction, so membership of a
    destination set in a hot component reduces to intersecting the returned
    group set.
    """
    # Union-find keyed by group id: shapes sharing a group merge their roots.
    parent: Dict[GroupId, GroupId] = {}

    def find(g: GroupId) -> GroupId:
        while parent[g] != g:
            parent[g] = parent[parent[g]]
            g = parent[g]
        return g

    for shape in shapes:
        anchor = None
        for g in shape:
            parent.setdefault(g, g)
            if anchor is None:
                anchor = find(g)
            else:
                parent[find(g)] = anchor
    hot_roots = {
        find(next(iter(a & b)))
        for i, a in enumerate(shapes)
        for b in shapes[i:]
        if len(a & b) == 1
    }
    return frozenset(g for g in parent if find(g) in hot_roots)


@dataclass(frozen=True)
class Exposure:
    """Which destination sets the timestamp authority orders.

    One immutable value shared by every group of a deployment (they must
    agree: a group that never proposes would block every timestamp decision
    for the messages its peers expose).  Three constructors:

    * :meth:`none` — nothing is exposed: the paper's protocol, ordered by
      histories, acks and notifs alone.
    * :meth:`declared` — the deployment declares its universe of global
      destination-set *shapes*.  Shapes that share groups form conflict
      components; a component containing a pair that meets at exactly one
      group is **hot** (three such messages get their pairwise orders
      decided at three independent groups, and no down-flowing history can
      relate those decisions in time), and every message addressed into a
      hot component is exposed.  Closing over whole components — not only
      the single-intersecting shapes — is load-bearing: each group belongs
      to at most one component, so two messages that meet anywhere are
      either both exposed or both unexposed, and a timestamp edge can never
      compose with history edges into a cycle (bounded exploration
      found exactly that wedge when exposure stopped at the shapes
      themselves).  A universe with no single-shared pair exposes nothing.
    * :meth:`all` — every global message is exposed (a declared universe in
      which every group is hot, without having to enumerate it).

    Local (single-group) destination sets are never exposed and never part
    of a universe.
    """

    #: Declared global shapes; ``None`` = no declaration, every shape admitted.
    universe: Optional[FrozenSet[FrozenSet[GroupId]]] = None
    #: Every global destination set is exposed.
    everything: bool = False
    #: Groups owned by hot components of :attr:`universe` (derived).
    hot_groups: FrozenSet[GroupId] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if self.everything and self.universe is not None:
            raise ValueError("exposure-all takes no declared universe")
        universe = self.universe
        if universe is not None:
            universe = frozenset(
                shape for shape in map(frozenset, universe) if len(shape) > 1
            )
            object.__setattr__(self, "universe", universe)
        object.__setattr__(
            self, "hot_groups", _hot_conflict_groups(tuple(universe or ()))
        )

    @classmethod
    def none(cls) -> "Exposure":
        return cls()

    @classmethod
    def all(cls) -> "Exposure":
        return cls(everything=True)

    @classmethod
    def declared(cls, shapes: Iterable[Iterable[GroupId]]) -> "Exposure":
        return cls(universe=shapes)

    def __bool__(self) -> bool:
        """Non-empty: some destination set is exposed."""
        return self.everything or bool(self.hot_groups)

    def covers(self, dst: FrozenSet[GroupId]) -> bool:
        """Is a message with this ``dst`` ordered by the timestamp authority?

        Pure in ``dst``, symmetric and transitively closed: every message
        that can meet an exposed one at some group is itself exposed."""
        return len(dst) > 1 and (
            self.everything or not self.hot_groups.isdisjoint(dst)
        )

    def admits(self, dst: FrozenSet[GroupId]) -> bool:
        """May a message with this ``dst`` be submitted at all?  An
        undeclared global shape is outside the conflict analysis — it could
        single-intersect a declared one and run unexposed next to it."""
        return self.universe is None or len(dst) < 2 or dst in self.universe


@dataclass
class PendingTimestamp:
    """Timestamp state of one undelivered message at one group."""

    msg_id: str
    #: Destination groups whose proposals decide the final timestamp.
    dst: FrozenSet[GroupId]
    #: Timestamp this group proposed.
    local_timestamp: int
    #: Proposals received so far (this group's own included), max-merged.
    proposals: Dict[GroupId, int] = field(default_factory=dict)
    #: Final (maximum) timestamp; ``None`` while proposals are missing.
    final_timestamp: Optional[int] = None

    @property
    def decided(self) -> bool:
        return self.final_timestamp is not None

    def effective_key(self) -> TimestampKey:
        """Delivery sort key: the final timestamp when decided, otherwise the
        local proposal — a lower bound on whatever the final will be."""
        ts = (
            self.final_timestamp
            if self.final_timestamp is not None
            else self.local_timestamp
        )
        return (ts, self.msg_id)


class TimestampAuthority:
    """Per-group Skeen timestamp state: clock, proposals, convoy gate."""

    def __init__(self, group_id: GroupId) -> None:
        self.group_id = group_id
        #: Lamport-style logical clock used to propose timestamps.
        self.clock = 0
        #: msg_id -> timestamp state, for proposed-but-undelivered messages.
        self.pending: Dict[str, PendingTimestamp] = {}
        #: Proposals that arrived before this group's own first contact with
        #: the message (buffered exactly like the Skeen baseline does).
        self._early: Dict[str, Dict[GroupId, int]] = {}
        #: Messages already delivered (or garbage-collected): late or
        #: duplicated proposals for them are absorbed silently.
        self._completed: Set[str] = set()

    # ------------------------------------------------------------- lifecycle
    def propose(self, msg_id: str, dst: Iterable[GroupId]) -> Optional[int]:
        """First-contact proposal for ``msg_id``.

        Returns the local timestamp the caller must disseminate to the other
        destinations, or ``None`` when the message was already proposed or
        completed (duplicate-propose handling: re-submissions and duplicated
        envelopes must not mint a second proposal).
        """
        if msg_id in self.pending or msg_id in self._completed:
            return None
        self.clock += 1
        entry = PendingTimestamp(
            msg_id=msg_id,
            dst=frozenset(dst),
            local_timestamp=self.clock,
        )
        entry.proposals[self.group_id] = self.clock
        self.pending[msg_id] = entry
        early = self._early.pop(msg_id, None)
        if early:
            for group, timestamp in early.items():
                self._merge_proposal(entry, group, timestamp)
        self._maybe_decide(entry)
        return entry.local_timestamp

    def observe(self, msg_id: str, from_group: GroupId, timestamp: int) -> bool:
        """Max-merge a remote proposal.

        Always advances the clock (Lamport receive rule).  Returns ``True``
        when the message's state changed — a new proposal was recorded or the
        final timestamp got decided — so callers know to re-examine their
        delivery queues.
        """
        self.clock = max(self.clock, timestamp)
        if msg_id in self._completed:
            return False
        entry = self.pending.get(msg_id)
        if entry is None:
            # Raced ahead of our own first contact; buffer until propose().
            known = self._early.setdefault(msg_id, {})
            if known.get(from_group, -1) >= timestamp:
                return False
            known[from_group] = timestamp
            return False
        changed = self._merge_proposal(entry, from_group, timestamp)
        if not entry.decided:
            changed = self._maybe_decide(entry) or changed
        return changed

    def complete(self, msg_id: str) -> None:
        """The caller delivered ``msg_id``: retire it from the pending set."""
        self.pending.pop(msg_id, None)
        self._early.pop(msg_id, None)
        self._completed.add(msg_id)

    def forget(self, msg_ids: Iterable[str]) -> None:
        """Garbage collection: drop the completed-memory for pruned messages.

        A proposal for a forgotten message can in principle arrive afterwards
        and re-open a pending entry; FlexCast's history keeps its own
        forgotten set for exactly this reason, and callers gate re-proposals
        on it — the authority itself stays O(live + completed-since-last-GC).
        """
        self._completed.difference_update(msg_ids)
        for msg_id in msg_ids:
            self._early.pop(msg_id, None)

    # --------------------------------------------------------------- queries
    def is_pending(self, msg_id: str) -> bool:
        return msg_id in self.pending

    def is_completed(self, msg_id: str) -> bool:
        return msg_id in self._completed

    def decided(self, msg_id: str) -> bool:
        entry = self.pending.get(msg_id)
        return entry is not None and entry.decided

    def final_timestamp(self, msg_id: str) -> Optional[int]:
        entry = self.pending.get(msg_id)
        return entry.final_timestamp if entry is not None else None

    def proposals_of(self, msg_id: str) -> Tuple[Tuple[GroupId, int], ...]:
        """Known proposals for ``msg_id`` (piggybacked on FlexCast envelopes)."""
        entry = self.pending.get(msg_id)
        if entry is None:
            return ()
        return tuple(sorted(entry.proposals.items(), key=lambda kv: str(kv[0])))

    def pending_count(self) -> int:
        return len(self.pending)

    def deliverable(self, msg_id: str) -> bool:
        """Convoy gate: ``msg_id`` is decided and no other pending message
        could still obtain a smaller ``(final timestamp, id)`` key."""
        entry = self.pending.get(msg_id)
        if entry is None or not entry.decided:
            return False
        key = entry.effective_key()
        return all(
            other.effective_key() > key
            for other in self.pending.values()
            if other.msg_id != msg_id
        )

    def next_deliverable(self) -> Optional[str]:
        """The unique pending message currently allowed through the gate.

        Returns ``None`` while the smallest effective key belongs to an
        undecided message (it could still be undercut — the convoy wait).
        """
        if not self.pending:
            return None
        candidate = min(self.pending.values(), key=PendingTimestamp.effective_key)
        if not candidate.decided:
            return None
        return candidate.msg_id if self.deliverable(candidate.msg_id) else None

    def blocked_on(self, msg_id: str) -> List[str]:
        """Pending messages whose effective key undercuts ``msg_id``
        (diagnostics: what the convoy is waiting for)."""
        entry = self.pending.get(msg_id)
        if entry is None:
            return []
        key = entry.effective_key()
        return sorted(
            other.msg_id
            for other in self.pending.values()
            if other.msg_id != msg_id and other.effective_key() <= key
        )

    # --------------------------------------------------------------- helpers
    def _merge_proposal(
        self, entry: PendingTimestamp, from_group: GroupId, timestamp: int
    ) -> bool:
        """Record ``from_group``'s proposal, keeping the max on duplicates."""
        known = entry.proposals.get(from_group)
        if known is not None and known >= timestamp:
            return False
        entry.proposals[from_group] = timestamp
        return True

    def _maybe_decide(self, entry: PendingTimestamp) -> bool:
        if entry.decided:
            return False
        if set(entry.proposals) >= set(entry.dst):
            entry.final_timestamp = max(entry.proposals.values())
            self.clock = max(self.clock, entry.final_timestamp)
            return True
        return False
