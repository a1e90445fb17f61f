"""FlexCast histories.

A *history* (paper §4.1, Strategy (a)) is a DAG whose vertices are messages
(identified by id, annotated with their destination set) and whose edges are
delivery-order dependencies: an edge ``m1 -> m2`` means ``m1`` was ordered
before ``m2`` somewhere, so every group must respect that order.  Each group:

* records every message it delivers in its history, chained after the
  previously delivered message (building a per-group total order);
* merges the history deltas it receives from ancestors;
* ships *diffs* of its history to descendants (the version shipped to each
  is a field of the group's record of it, :class:`repro.core.flexcast.Channel`)
  so the ever-growing history is never resent;
* prunes the history when a garbage-collection ``flush`` message is delivered
  (§4.3).

The structure is maintained *incrementally* so the delivery hot path scales
with the delta, not with ``|H|`` (see DESIGN.md for the complexity table and
invariants):

* a per-group destination index makes ``contains_message_to`` an O(1)
  lookup instead of a full scan;
* an append-only, monotonically versioned *change journal* records every
  vertex/edge insertion; diff computation is a slice of the journal past
  the version shipped to a descendant (:meth:`History.changes_since`), not a
  rescan of the whole DAG.  Each entry is the very tuple a delta ships (a
  merge journals the received tuples themselves), so a diff is split by kind
  and builds no per-entry tuple; only entries older than the last garbage
  collection are checked for liveness;
* a descendant whose shipped version predates the retained journal (the
  journal below it was compacted) is shipped the whole live history once, as
  the same vertex and edge tuples :meth:`History.full_delta` builds.  That is
  O(|H|) by design: it happens on first contact after a compaction.

A history is not durable by itself: it is part of a replica's protocol state,
which :mod:`repro.smr` rebuilds by replaying the replicated log.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..obs.registry import MetricsRegistry
from ..overlay.base import GroupId
from .message import HistoryDelta, Message

#: A journal entry is the very tuple a delta ships: ``(msg_id, dst)`` for a
#: vertex, ``(before, after)`` for an edge.  Its second item tells the kind:
#: a destination set for a vertex, a message id (``str``) for an edge.
_Entry = Tuple[str, Any]
_Vertices = Tuple[Tuple[str, FrozenSet[GroupId]], ...]
_Edges = Tuple[Tuple[str, str], ...]


class History:
    """A dependency DAG over delivered messages.

    The structure mirrors the paper's ``H = (M, D, lastDlvd)``:

    * ``M`` — :attr:`destinations`, mapping message id to destination set;
    * ``D`` — :attr:`successors` (and the mirrored :attr:`predecessors`),
      where an edge ``(a, b)`` means *b depends on a* (a was ordered first);
    * ``lastDlvd`` — :attr:`last_delivered`, the id of the last message this
      group itself delivered.

    On top of the paper structure, two incremental indexes are maintained on
    every mutation (the invariants are spelled out in DESIGN.md):

    * ``_by_group`` — ``group -> {msg_id}`` over the *live* vertices, kept in
      sync by :meth:`add_vertex` / :meth:`_remove_vertex`;
    * ``_journal`` — the append-only change journal, each entry the tuple a
      delta ships (:data:`_Entry`).  ``version`` is the sequence number of
      the next entry; removals are never journaled (diffs only ship
      additions, exactly like the seed implementation).  Entries journaled
      before the last garbage collection (``_pruned_at``) may name pruned
      vertices: they are filtered lazily in :meth:`changes_since` and
      dropped for good when the journal is compacted.  Entries journaled
      since are live and ship as they are.
    """

    __slots__ = (
        "destinations",
        "successors",
        "predecessors",
        "last_delivered",
        "_forgotten",
        "_by_group",
        "_journal",
        "_journal_base",
        "_pruned_at",
    )

    def __init__(self) -> None:
        self.destinations: Dict[str, FrozenSet[GroupId]] = {}
        self.successors: Dict[str, Set[str]] = {}
        self.predecessors: Dict[str, Set[str]] = {}
        self.last_delivered: Optional[str] = None
        # Messages removed by garbage collection.  Ancestors may still mention
        # them in later deltas; re-adding them would resurrect already-resolved
        # dependencies and block delivery forever, so they are remembered and
        # filtered out on merge.
        self._forgotten: Set[str] = set()
        # group -> ids of live vertices addressed to that group.
        self._by_group: Dict[GroupId, Set[str]] = {}
        # Append-only change journal; _journal_base is the sequence number of
        # the first retained entry (entries below it were compacted away once
        # every descendant had been shipped past them, or they fell out of
        # the cap; see compact_journal).
        self._journal: List[_Entry] = []
        self._journal_base = 0
        # The version at the last garbage collection that removed anything:
        # journal entries from this sequence number on are all live.
        self._pruned_at = 0

    # ---------------------------------------------------------------- basics
    def __contains__(self, msg_id: str) -> bool:
        return msg_id in self.destinations

    def __len__(self) -> int:
        return len(self.destinations)

    @property
    def num_edges(self) -> int:
        return sum(len(s) for s in self.successors.values())

    @property
    def version(self) -> int:
        """Sequence number of the next journal entry (monotonic)."""
        return self._journal_base + len(self._journal)

    @property
    def journal_len(self) -> int:
        """Number of journal entries currently retained (introspection)."""
        return len(self._journal)

    @property
    def journal_base(self) -> int:
        """Sequence number of the oldest retained journal entry."""
        return self._journal_base

    def message_ids(self) -> List[str]:
        return list(self.destinations)

    def edges(self) -> List[Tuple[str, str]]:
        return [(a, b) for a, succ in self.successors.items() for b in succ]

    # -------------------------------------------------------------- mutation
    def add_vertex(self, msg_id: str, dst: FrozenSet[GroupId]) -> None:
        """Insert a message vertex (idempotent, ignores forgotten messages)."""
        if msg_id in self.destinations or msg_id in self._forgotten:
            return
        self.destinations[msg_id] = dst
        self.successors[msg_id] = set()
        self.predecessors[msg_id] = set()
        for group in dst:
            self._by_group.setdefault(group, set()).add(msg_id)
        self._journal.append((msg_id, dst))

    def add_edge(self, before: str, after: str) -> None:
        """Record that ``before`` was ordered before ``after``.

        Both endpoints must already be vertices; edges touching forgotten
        messages are dropped because the dependency has been fully resolved.
        Duplicate edges are ignored (and not journaled again).  A forgotten
        id is never a live vertex, so the liveness lookup refuses it too.
        """
        succ = self.successors.get(before)
        if succ is None or after in succ or after == before:
            return
        if after not in self.destinations:
            return
        succ.add(after)
        self.predecessors[after].add(before)
        self._journal.append((before, after))

    def record_delivery(self, message: Message) -> None:
        """Append a locally delivered message to the group's total order.

        Implements ``hst-add``: the new message depends on the previously
        delivered one (``lastDlvd``) and becomes the new ``lastDlvd``.
        """
        self.add_vertex(message.msg_id, message.dst)
        if self.last_delivered is not None and self.last_delivered != message.msg_id:
            # add_edge validates both endpoints, so a pruned lastDlvd (whose
            # edge would be meaningless) is rejected there.
            self.add_edge(self.last_delivered, message.msg_id)
        self.last_delivered = message.msg_id

    def merge_delta(self, delta: HistoryDelta) -> None:
        """Integrate an ancestor's history delta (``update-hst``).

        Vertices and edges apply with :meth:`add_vertex`/:meth:`add_edge`
        semantics (idempotent, forgotten-filtered, journaled), with the
        per-entry attribute lookups hoisted out of the loops.  The received
        tuples themselves become the journal entries.
        """
        if delta is None or delta.is_empty:
            return
        destinations = self.destinations
        forgotten = self._forgotten
        successors = self.successors
        predecessors = self.predecessors
        by_group = self._by_group
        journal = self._journal
        for vertex in delta.vertices:
            msg_id, dst = vertex
            if msg_id in destinations or msg_id in forgotten:
                continue
            destinations[msg_id] = dst
            successors[msg_id] = set()
            predecessors[msg_id] = set()
            for group in dst:
                members = by_group.get(group)
                if members is None:
                    by_group[group] = members = set()
                members.add(msg_id)
            journal.append(vertex)
        for edge in delta.edges:
            before, after = edge
            # A forgotten id is never live: successors.get refuses it.
            succ = successors.get(before)
            if succ is None or after in succ or after == before:
                continue
            if after not in destinations:
                continue
            succ.add(after)
            predecessors[after].add(before)
            journal.append(edge)

    # --------------------------------------------------------------- queries
    def depends(self, later: str, earlier: str) -> bool:
        """True iff ``later`` (transitively) depends on ``earlier``.

        Implements the paper's ``depend(m, m')``: there is a path of
        dependency edges from ``earlier`` to ``later``.  (The delivery gate
        asks :meth:`reached_from` instead.)
        """
        return earlier != later and earlier in self.ancestors_of(later)

    def ancestors_of(self, msg_id: str) -> Set[str]:
        """All messages ``msg_id`` transitively depends on (one backward
        walk; garbage collection's victim set and the tests' reference)."""
        result: Set[str] = set()
        queue = deque(self.predecessors.get(msg_id, ()))
        while queue:
            node = queue.popleft()
            if node in result:
                continue
            result.add(node)
            queue.extend(self.predecessors.get(node, ()))
        return result

    def reached_from(self, sources: Iterable[str], targets: Iterable[str]) -> Set[str]:
        """The ``targets`` that transitively depend on any of ``sources``.

        ``t in reached_from([m], ts)`` ⇔ ``m in ancestors_of(t)``, asked from
        the other end: one walk over :attr:`successors` from the sources
        (shared between them, so never more than O(|H|)) that stops once
        every live target is found.  The protocol asks this about
        just-delivered or still-undelivered sources, whose descendants are
        the few messages ordered after them, where a target's ancestors are
        the whole history since the last flush.  The worst case is a source
        that stayed undelivered while the DAG grew behind it.
        """
        successors = self.successors
        stack = [n for s in sources for n in successors.get(s, ())]
        found: Set[str] = set()
        if not stack:
            return found
        destinations = self.destinations
        wanted = {t for t in targets if t in destinations}
        if not wanted:
            return found
        seen: Set[str] = set()
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            if node in wanted:
                found.add(node)
                if len(found) == len(wanted):
                    break
            stack.extend(successors[node])
        return found

    def contains_message_to(self, group: GroupId) -> bool:
        """Paper's ``hst.containsMsgTo(g)`` used by Strategy (c).  O(1)."""
        return bool(self._by_group.get(group))

    def has_cycle(self) -> bool:
        """Defensive check used by tests/checker; the protocol never creates one."""
        colors: Dict[str, int] = {}

        def visit(node: str) -> bool:
            colors[node] = 1
            for succ in self.successors.get(node, ()):
                state = colors.get(succ, 0)
                if state == 1:
                    return True
                if state == 0 and visit(succ):
                    return True
            colors[node] = 2
            return False

        return any(colors.get(n, 0) == 0 and visit(n) for n in self.destinations)

    # ----------------------------------------------------------- journal/diff
    def changes_since(self, watermark: int) -> Tuple[_Vertices, _Edges, int]:
        """Changes journaled at or after ``watermark``.

        Returns ``(vertices, edges, version)`` where ``version`` is the new
        watermark for the caller.  A watermark inside the retained journal
        gets a journal slice; entries whose vertices were pruned in the
        meantime are filtered out, so a forgotten message can never reappear
        in a delta.  One below it gets the whole live history
        (:meth:`_live_content`): the journal there was compacted, so what
        such a caller lacks can no longer be told apart, and overshipping is
        safe (merges are idempotent).
        """
        if watermark < self._journal_base:
            vertices, edges = self._live_content()
        else:
            vertices, edges = self._journal_slice(watermark)
        return vertices, edges, self.version

    def _journal_slice(self, since: int) -> Tuple[_Vertices, _Edges]:
        """Live vertices/edges journaled at or after ``since`` (>= base).

        The journal's own tuples are shipped, split by kind.  Only entries
        older than the last garbage collection are checked for liveness;
        the rest are live by construction.
        """
        journal = self._journal
        start = since - self._journal_base
        live_from = self._pruned_at - self._journal_base
        vertices: List[Tuple[str, FrozenSet[GroupId]]] = []
        edges: List[Tuple[str, str]] = []
        if start < live_from:
            destinations = self.destinations
            for entry in journal[start:live_from]:
                first, second = entry
                if isinstance(second, str):
                    if first in destinations and second in destinations:
                        edges.append(entry)
                elif first in destinations:
                    vertices.append(entry)
        else:
            live_from = start
        for entry in journal[live_from:]:
            if isinstance(entry[1], str):
                edges.append(entry)
            else:
                vertices.append(entry)
        return tuple(vertices), tuple(edges)

    def _live_content(self) -> Tuple[_Vertices, _Edges]:
        """Every live vertex and edge, as the tuples a delta ships."""
        return tuple(self.destinations.items()), tuple(self.edges())

    #: Retained journal entries are capped at ``_JOURNAL_SLACK × live size``
    #: (plus a small constant) at every :meth:`compact_journal`.
    _JOURNAL_SLACK = 2
    _JOURNAL_MIN = 64

    def compact_journal(self, floor: Optional[int]) -> int:
        """Drop the journal entries below ``floor`` after a garbage collection.

        ``floor`` is the lowest version shipped to any descendant (``None``:
        there is none, and the whole journal goes); entries below it can
        never appear in a future slice.  A descendant the group has stopped
        sending to must not pin the journal forever, so the retained journal
        is also capped in proportion to the *live* history; a descendant left
        below the new base is shipped the whole live history on its next
        diff (:meth:`changes_since`; overshipping is safe, merges are
        idempotent and forgotten ids are filtered).  Returns the number of
        entries dropped.
        """
        version = self.version
        if floor is None:
            upto = version
        else:
            live = len(self) + self.num_edges
            cap = self._JOURNAL_SLACK * live + self._JOURNAL_MIN
            upto = min(max(floor, version - cap), version)
        if upto <= self._journal_base:
            return 0
        dropped = upto - self._journal_base
        del self._journal[:dropped]
        self._journal_base = upto
        return dropped

    # --------------------------------------------------------------- pruning
    def collect_garbage(self, pivot_id: str, keep: Optional[Set[str]] = None) -> Set[str]:
        """Garbage-collect every message the pivot transitively depends on,
        and return the removed ids.

        Called when a ``flush`` message is delivered (§4.3): everything ordered
        before the flush has been resolved at every group that needed it and
        can be forgotten.  ``keep`` protects specific ids (e.g. the group's
        ``last_delivered``).  Returning the victim set lets callers update
        their own indexes in O(victims) instead of diffing two snapshots.
        """
        keep = keep or set()
        victims = self.ancestors_of(pivot_id) - keep - {pivot_id}
        if not victims:
            return victims
        for victim in victims:
            self._remove_vertex(victim)
        self._forgotten.update(victims)
        # A pruned vertex must never appear in a future delta: journal
        # entries from before this point are checked for liveness when they
        # ship.
        self._pruned_at = self.version
        return victims

    def _remove_vertex(self, msg_id: str) -> None:
        for succ in self.successors.pop(msg_id, set()):
            self.predecessors.get(succ, set()).discard(msg_id)
        for pred in self.predecessors.pop(msg_id, set()):
            self.successors.get(pred, set()).discard(msg_id)
        dst = self.destinations.pop(msg_id, None)
        if dst:
            for group in dst:
                members = self._by_group.get(group)
                if members is not None:
                    members.discard(msg_id)
                    if not members:
                        del self._by_group[group]
        if self.last_delivered == msg_id:
            self.last_delivered = None

    @property
    def forgotten_count(self) -> int:
        return len(self._forgotten)

    def is_forgotten(self, msg_id: str) -> bool:
        return msg_id in self._forgotten

    def register_metrics(
        self, registry: MetricsRegistry, labels: Dict[str, str]
    ) -> None:
        """Register pull-based gauges over this history (see repro.obs).

        Every series is a callback over state the history already
        maintains (sizes and monotone counters), so registration adds no
        mutation-path work at all — the values are computed at scrape
        time.  ``history_forgotten_total`` is the GC forget counter; its
        rate over scrape intervals is the GC forget rate.
        """
        registry.gauge(
            "history_vertices",
            "Live vertices currently retained in the history DAG.",
            labels,
            fn=lambda: len(self),
        )
        registry.gauge(
            "history_edges",
            "Dependency edges currently retained in the history DAG.",
            labels,
            fn=lambda: self.num_edges,
        )
        registry.gauge(
            "history_journal_len",
            "Entries in the append-only change journal (post-compaction).",
            labels,
            fn=lambda: self.journal_len,
        )
        registry.gauge(
            "history_journal_base",
            "Sequence number of the oldest retained journal entry.",
            labels,
            fn=lambda: self.journal_base,
        )
        registry.counter(
            "history_version_total",
            "Journal sequence number (total recorded mutations).",
            labels,
            fn=lambda: self.version,
        )
        registry.counter(
            "history_forgotten_total",
            "Vertices forgotten by garbage collection since birth.",
            labels,
            fn=lambda: self.forgotten_count,
        )

    # ----------------------------------------------------------------- export
    def full_delta(self) -> HistoryDelta:
        """The entire live history as a delta (tests, benchmarks)."""
        return HistoryDelta(*self._live_content())
