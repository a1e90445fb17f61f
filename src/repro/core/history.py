"""FlexCast histories.

A *history* (paper §4.1, Strategy (a)) is a DAG whose vertices are messages
(identified by id, annotated with their destination set) and whose edges are
delivery-order dependencies: an edge ``m1 -> m2`` means ``m1`` was ordered
before ``m2`` somewhere, so every group must respect that order.  Each group:

* records every message it delivers in its history, chained after the
  previously delivered message (building a per-group total order);
* merges the history deltas it receives from ancestors;
* ships *diffs* of its history to descendants (tracked per descendant by
  :class:`HistoryDiffTracker`) so the ever-growing history is never resent;
* prunes the history when a garbage-collection ``flush`` message is delivered
  (§4.3).

The structure is maintained *incrementally* so the delivery hot path scales
with the delta, not with ``|H|`` (see DESIGN.md for the complexity table and
invariants):

* a per-group destination index makes ``contains_message_to`` an O(1)
  lookup instead of a full scan;
* an append-only, monotonically versioned *change journal* records every
  vertex/edge insertion; diff computation is a slice of the journal past a
  descendant's watermark (:meth:`History.changes_since`), not a rescan of the
  whole DAG;
* the *cold* path (a brand-new or long-gone descendant whose watermark
  predates the retained journal) ships a packed
  :class:`~repro.core.message.HistorySnapshot` plus the journal suffix past
  the snapshot's version instead of re-materialising per-vertex tuples, and
  :meth:`History.merge_delta` batch-applies the whole delta — so reconnects
  and rejoins cost O(affected), not O(|H|) python object churn.

A history is not durable by itself: it is part of a replica's protocol state,
which :mod:`repro.smr` rebuilds by replaying the replicated log.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..obs.registry import MetricsRegistry
from ..overlay.base import GroupId
from .message import EMPTY_DELTA, HistoryDelta, HistorySnapshot, Message

#: Journal entry kinds.  Entries are plain tuples to keep append cheap:
#: ``(_JOURNAL_VERTEX, msg_id, dst)`` or ``(_JOURNAL_EDGE, before, after)``.
_JOURNAL_VERTEX = "v"
_JOURNAL_EDGE = "e"

#: A diff request at watermark 0 switches from the journal slice to the
#: packed-snapshot cold path once the history's version reaches this many
#: journal entries; below it, slicing a short journal is cheaper than
#: building/caching a snapshot.
COLD_SYNC_MIN_ENTRIES = 256


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
    * ``_journal`` — the append-only change journal.  ``version`` is the
      sequence number of the next entry; removals are never journaled (diffs
      only ship additions, exactly like the seed implementation) — pruned
      entries are filtered lazily in :meth:`changes_since` and dropped for
      good when the journal is compacted.
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
        "_snapshot_cache",
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
        # every tracked descendant's watermark had passed them).
        self._journal: List[Tuple] = []
        self._journal_base = 0
        # Packed snapshot reused across cold diffs.  Valid while no vertex has
        # been removed since it was built (the journal suffix past its version
        # then reconstructs the live DAG exactly); GC invalidates it.
        self._snapshot_cache: Optional[HistorySnapshot] = None

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
        if msg_id in self._forgotten or msg_id in self.destinations:
            return
        self.destinations[msg_id] = dst
        self.successors.setdefault(msg_id, set())
        self.predecessors.setdefault(msg_id, set())
        for group in dst:
            self._by_group.setdefault(group, set()).add(msg_id)
        self._journal.append((_JOURNAL_VERTEX, msg_id, dst))

    def add_edge(self, before: str, after: str) -> None:
        """Record that ``before`` was ordered before ``after``.

        Both endpoints must already be vertices; edges touching forgotten
        messages are dropped because the dependency has been fully resolved.
        Duplicate edges are ignored (and not journaled again).
        """
        if before in self._forgotten or after in self._forgotten:
            return
        if before not in self.destinations or after not in self.destinations:
            return
        if before == after:
            return
        succ = self.successors[before]
        if after in succ:
            return
        succ.add(after)
        self.predecessors[after].add(before)
        self._journal.append((_JOURNAL_EDGE, before, after))

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

        The packed snapshot (cold sync) is applied first, then the journal
        suffix; indexes are updated incrementally per entry.
        """
        if delta is None or delta.is_empty:
            return
        if delta.snapshot is not None:
            self._install_snapshot_content(delta.snapshot)
        self._bulk_apply(delta.vertices, delta.edges)

    def _install_snapshot_content(self, snapshot: HistorySnapshot) -> None:
        if snapshot.is_empty:
            return
        fresh = (
            not self.destinations
            and not self._forgotten
            and not self._journal
            and self._journal_base == 0
        )
        if not fresh:
            self._bulk_apply(
                zip(snapshot.ids, snapshot.dsts),
                zip(snapshot.edges_a, snapshot.edges_b),
            )
            return
        # Brand-new history: swap the indexes in wholesale.  The installed
        # entries are treated as pre-compacted journal history (journal_base
        # advances past them), so this node's own descendants fall below the
        # base and get the cold snapshot path — no per-entry journal replay
        # anywhere.
        ids, dsts = snapshot.ids, snapshot.dsts
        self.destinations = dict(zip(ids, dsts))
        self.successors = {mid: set() for mid in ids}
        self.predecessors = {mid: set() for mid in ids}
        by_group = self._by_group
        for mid, dst in zip(ids, dsts):
            for group in dst:
                members = by_group.get(group)
                if members is None:
                    by_group[group] = members = set()
                members.add(mid)
        edge_count = 0
        successors = self.successors
        predecessors = self.predecessors
        for a, b in zip(snapshot.edges_a, snapshot.edges_b):
            succ = successors.get(a)
            if succ is None or b not in predecessors or a == b or b in succ:
                continue
            succ.add(b)
            predecessors[b].add(a)
            edge_count += 1
        self._journal_base = len(ids) + edge_count
        self._snapshot_cache = None

    def _bulk_apply(
        self,
        vertices: Iterable[Tuple[str, FrozenSet[GroupId]]],
        edges: Iterable[Tuple[str, str]],
    ) -> None:
        """Apply vertices/edges with :meth:`add_vertex`/:meth:`add_edge`
        semantics (idempotent, forgotten-filtered, journaled), with the
        per-entry attribute lookups hoisted out of the loops."""
        destinations = self.destinations
        forgotten = self._forgotten
        successors = self.successors
        predecessors = self.predecessors
        by_group = self._by_group
        journal = self._journal
        for msg_id, dst in vertices:
            if msg_id in forgotten or msg_id in destinations:
                continue
            destinations[msg_id] = dst
            successors.setdefault(msg_id, set())
            predecessors.setdefault(msg_id, set())
            for group in dst:
                members = by_group.get(group)
                if members is None:
                    by_group[group] = members = set()
                members.add(msg_id)
            journal.append((_JOURNAL_VERTEX, msg_id, dst))
        for before, after in edges:
            if before in forgotten or after in forgotten:
                continue
            if before not in destinations or after not in destinations:
                continue
            if before == after:
                continue
            succ = successors[before]
            if after in succ:
                continue
            succ.add(after)
            predecessors[after].add(before)
            journal.append((_JOURNAL_EDGE, before, after))

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
    def changes_since(
        self, watermark: int
    ) -> Tuple[
        Tuple[Tuple[str, FrozenSet[GroupId]], ...],
        Tuple[Tuple[str, str], ...],
        Optional[HistorySnapshot],
        int,
    ]:
        """Changes journaled at or after ``watermark``.

        Returns ``(vertices, edges, snapshot, version)`` where ``version`` is
        the new watermark for the caller.  Entries whose vertices were pruned
        in the meantime are filtered out, so a forgotten message can never
        reappear in a delta.

        The *warm* path (watermark within the retained journal, modest gap)
        returns a journal slice with ``snapshot is None``.  The *cold* path —
        the watermark predates the retained journal, or a brand-new caller
        (watermark 0) faces a long journal — returns the cached packed
        :class:`HistorySnapshot` plus the short journal suffix past the
        snapshot's version.  Both carry exactly the live content the caller
        is missing; the cold form just avoids re-materialising O(|H|)
        per-vertex tuples for every reconnect.
        """
        version = self.version
        if watermark >= version:
            return (), (), None, version
        cold = watermark < self._journal_base or (
            watermark == 0 and version >= COLD_SYNC_MIN_ENTRIES
        )
        if not cold:
            vertices, edges = self._journal_slice(watermark)
            return vertices, edges, None, version
        # The journal below the base was compacted because every tracked
        # descendant had already seen it; a caller this far behind has never
        # been sent anything (or lost what it had), so ship the whole live
        # history once — as a packed snapshot shared across such callers.
        snapshot = self.live_snapshot()
        if snapshot.version >= version:
            return (), (), snapshot, version
        vertices, edges = self._journal_slice(snapshot.version)
        return vertices, edges, snapshot, version

    def _journal_slice(
        self, since: int
    ) -> Tuple[Tuple[Tuple[str, FrozenSet[GroupId]], ...], Tuple[Tuple[str, str], ...]]:
        """Live vertices/edges journaled at or after ``since`` (>= base)."""
        new_vertices: List[Tuple[str, FrozenSet[GroupId]]] = []
        new_edges: List[Tuple[str, str]] = []
        destinations = self.destinations
        successors = self.successors
        for entry in self._journal[since - self._journal_base :]:
            if entry[0] == _JOURNAL_VERTEX:
                if entry[1] in destinations:
                    new_vertices.append((entry[1], entry[2]))
            else:
                before, after = entry[1], entry[2]
                if after in successors.get(before, ()):
                    new_edges.append((before, after))
        return tuple(new_vertices), tuple(new_edges)

    def live_snapshot(self) -> HistorySnapshot:
        """The live history as a packed snapshot (parallel arrays), cached.

        The cache stays valid while the history only *grows* — new entries
        land in the journal past ``snapshot.version``, so cold diffs are
        ``cached snapshot + short suffix``.  Garbage collection invalidates
        it (a pruned vertex must never ship: the receiver would park it in
        its pending set forever), and it is rebuilt when compaction passes
        its version or the suffix outgrows the live size.
        """
        snapshot = self._snapshot_cache
        version = self.version
        if (
            snapshot is None
            or snapshot.version < self._journal_base
            or version - snapshot.version > max(COLD_SYNC_MIN_ENTRIES, len(self.destinations))
        ):
            edges_a: List[str] = []
            edges_b: List[str] = []
            for a, succ in self.successors.items():
                for b in succ:
                    edges_a.append(a)
                    edges_b.append(b)
            snapshot = HistorySnapshot(
                ids=tuple(self.destinations),
                dsts=tuple(self.destinations.values()),
                edges_a=tuple(edges_a),
                edges_b=tuple(edges_b),
                last_delivered=self.last_delivered,
                version=version,
            )
            self._snapshot_cache = snapshot
        return snapshot

    def cold_delta(self) -> HistoryDelta:
        """The full live history as a snapshot-bearing delta (cold sync)."""
        snapshot = self.live_snapshot()
        vertices, edges = self._journal_slice(snapshot.version)
        return HistoryDelta(
            vertices=vertices,
            edges=edges,
            last_delivered=self.last_delivered,
            seq=self.version,
            snapshot=snapshot,
        )

    def compact_journal(self, upto: int) -> int:
        """Drop journal entries below sequence number ``upto``.

        Only safe when every tracked descendant's watermark is >= ``upto``
        (enforced by :meth:`HistoryDiffTracker.forget`, the sole caller on the
        protocol path).  Returns the number of entries dropped.
        """
        upto = min(upto, self.version)
        if upto <= self._journal_base:
            return 0
        dropped = upto - self._journal_base
        del self._journal[:dropped]
        self._journal_base = upto
        return dropped

    # --------------------------------------------------------------- pruning
    def prune_before(self, pivot_id: str, keep: Optional[Set[str]] = None) -> int:
        """Garbage-collect every message the pivot transitively depends on.

        Returns the number of vertices removed; see :meth:`collect_garbage`
        for the victim set itself.
        """
        return len(self.collect_garbage(pivot_id, keep=keep))

    def collect_garbage(self, pivot_id: str, keep: Optional[Set[str]] = None) -> Set[str]:
        """Prune like :meth:`prune_before` but return the removed ids.

        Called when a ``flush`` message is delivered (§4.3): everything ordered
        before the flush has been resolved at every group that needed it and
        can be forgotten.  ``keep`` protects specific ids (e.g. the group's
        ``last_delivered``).  Returning the victim set lets callers update
        their own indexes in O(victims) instead of diffing two snapshots.
        """
        keep = keep or set()
        victims = self.ancestors_of(pivot_id) - keep - {pivot_id}
        for victim in victims:
            self._remove_vertex(victim)
        self._forgotten.update(victims)
        return victims

    def _remove_vertex(self, msg_id: str) -> None:
        # A pruned vertex must never appear in a future delta, so the packed
        # snapshot (if any) is stale from here on.
        self._snapshot_cache = None
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
        """Snapshot of the entire history as a delta (tests, bootstrap)."""
        return HistoryDelta(
            vertices=tuple((mid, dst) for mid, dst in self.destinations.items()),
            edges=tuple(self.edges()),
            last_delivered=self.last_delivered,
        )


class HistoryDiffTracker:
    """Tracks which part of the local history each descendant already knows.

    Implements ``diff-hst`` (§4.2 line 11 and §4.3) as a *watermark* over the
    history's change journal: for each descendant the tracker remembers the
    journal sequence number it has shipped up to; a new delta is the journal
    slice past that watermark (:meth:`History.changes_since`), so computing a
    diff costs O(new entries) instead of rescanning every vertex and
    re-materializing every edge.  After garbage collection the journal is
    compacted up to the lowest watermark, so it does not grow without bound.
    """

    def __init__(self) -> None:
        #: descendant -> journal sequence number shipped so far.
        self._watermarks: Dict[GroupId, int] = {}

    def diff_for(self, descendant: GroupId, history: History) -> HistoryDelta:
        """Compute the delta for ``descendant`` and advance its watermark."""
        watermark = self._watermarks.get(descendant, 0)
        vertices, edges, snapshot, version = history.changes_since(watermark)
        self._watermarks[descendant] = version
        if not vertices and not edges and snapshot is None:
            return EMPTY_DELTA
        return HistoryDelta(
            vertices=vertices,
            edges=edges,
            last_delivered=history.last_delivered,
            seq=version,
            snapshot=snapshot,
        )

    #: Retained journal entries are capped at ``_JOURNAL_SLACK × live size``
    #: (plus a small constant) at every :meth:`forget`; see below.
    _JOURNAL_SLACK = 2
    _JOURNAL_MIN = 64

    def forget(self, msg_ids: Iterable[str], history: Optional[History] = None) -> int:
        """Compact the journal after a garbage-collection round.

        The tracker holds nothing per message — watermarks are absolute
        sequence numbers and stay valid as-is — so ``msg_ids`` needs no
        bookkeeping of its own.
        When ``history`` is provided its journal is compacted up to the lowest
        watermark — entries every descendant has already seen can never appear
        in a future diff.  A descendant this group has stopped sending to
        must not pin the journal forever, so compaction additionally enforces
        a cap proportional to the *live* history size; a descendant whose
        watermark falls below the compacted base simply receives a full live
        snapshot on its next diff (overshipping is safe: merges are idempotent
        and forgotten ids are filtered).  Returns the number of journal
        entries dropped.
        """
        if history is None:
            return 0
        floor = min(self._watermarks.values(), default=history.version)
        cap = self._JOURNAL_SLACK * (len(history) + history.num_edges) + self._JOURNAL_MIN
        floor = max(floor, history.version - cap)
        return history.compact_journal(floor)

    def watermark(self, descendant: GroupId) -> int:
        """Journal sequence shipped to ``descendant`` so far (introspection)."""
        return self._watermarks.get(descendant, 0)
