"""FlexCast histories.

A *history* (paper §4.1, Strategy (a)) is a DAG whose vertices are messages
(identified by id, annotated with their destination set) and whose edges are
delivery-order dependencies: an edge ``m1 -> m2`` means ``m1`` was ordered
before ``m2`` somewhere, so every group must respect that order.  Each group:

* records every message it delivers in its history, chained after the
  previously delivered message (building a per-group total order);
* merges the history deltas it receives from ancestors;
* ships *diffs* of its history to descendants (the positions shipped to
  each are fields of the group's :class:`repro.core.flexcast.Channel` to
  it) so the ever-growing history is never resent;
* prunes the history when a garbage-collection ``flush`` message is delivered
  (§4.3).

The structure is maintained *incrementally* so the delivery hot path scales
with the delta, not with ``|H|`` (see DESIGN.md for the complexity table and
invariants):

* one adjacency map, :attr:`History.successors`: a collection finds its
  victims from the successor sets alone;
* a per-group destination index makes ``contains_message_to`` an O(1)
  lookup instead of a full scan;
* two append-only *change journals*, of vertices and of edges, each entry
  the very tuple a delta ships.  A diff is two list slices past the
  positions shipped to a descendant (:meth:`History.changes_since`).  A
  garbage collection empties both, so every retained entry is live;
* a descendant whose shipped version predates the retained journals (it was
  not shipped the version at the last collection) is shipped the whole live
  history once, as the same vertex and edge tuples :meth:`History.full_delta`
  builds.  That is O(|H|) by design: it happens on first contact after a
  collection.

A history is not durable by itself: it is part of a replica's protocol state,
which :mod:`repro.smr` rebuilds by replaying the replicated log.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..obs.registry import MetricsRegistry
from ..overlay.base import GroupId
from .message import HistoryDelta, Message

#: Journal entries are the very tuples a delta ships: ``(msg_id, dst)`` for a
#: vertex, ``(before, after)`` for an edge.
_Vertex = Tuple[str, FrozenSet[GroupId]]
_Edge = Tuple[str, str]
_Vertices = Tuple[_Vertex, ...]
_Edges = Tuple[_Edge, ...]


class History:
    """A dependency DAG over delivered messages.

    The structure mirrors the paper's ``H = (M, D, lastDlvd)``:

    * ``M`` — :attr:`destinations`, mapping message id to destination set;
    * ``D`` — :attr:`successors`, where an edge ``(a, b)`` means *b depends
      on a* (a was ordered first);
    * ``lastDlvd`` — :attr:`last_delivered`, the id of the last message this
      group itself delivered.

    On top of the paper structure, these indexes are maintained on every
    mutation (the invariants are spelled out in DESIGN.md):

    * ``_by_group`` — ``group -> {msg_id}`` over the *live* vertices, kept in
      sync by :meth:`add_vertex`, :meth:`merge_delta` and
      :meth:`collect_garbage`;
    * ``_vertex_journal`` and ``_edge_journal`` — the append-only change
      journals.  :attr:`version` counts every entry ever journaled, of both
      kinds; removals are never journaled (diffs only ship additions).
    """

    __slots__ = (
        "destinations",
        "successors",
        "last_delivered",
        "version",
        "_forgotten",
        "_by_group",
        "_vertex_journal",
        "_edge_journal",
        "_vertex_base",
        "_edge_base",
    )

    def __init__(self) -> None:
        self.destinations: Dict[str, FrozenSet[GroupId]] = {}
        self.successors: Dict[str, Set[str]] = {}
        self.last_delivered: Optional[str] = None
        #: Entries journaled since birth, vertices and edges (monotonic).
        self.version = 0
        # Messages removed by garbage collection.  Ancestors may still mention
        # them in later deltas; re-adding them would resurrect already-resolved
        # dependencies and block delivery forever, so they are remembered and
        # filtered out on merge.
        self._forgotten: Set[str] = set()
        # group -> ids of live vertices addressed to that group.
        self._by_group: Dict[GroupId, Set[str]] = {}
        # Append-only change journals; a base counts the entries of its kind
        # journaled before the last collection emptied the journal.
        self._vertex_journal: List[_Vertex] = []
        self._edge_journal: List[_Edge] = []
        self._vertex_base = 0
        self._edge_base = 0

    # ---------------------------------------------------------------- basics
    def __contains__(self, msg_id: str) -> bool:
        return msg_id in self.destinations

    def __len__(self) -> int:
        return len(self.destinations)

    @property
    def num_edges(self) -> int:
        return sum(len(s) for s in self.successors.values())

    @property
    def vertex_version(self) -> int:
        """Vertices journaled since birth: the vertex journal's end."""
        return self._vertex_base + len(self._vertex_journal)

    @property
    def journal_len(self) -> int:
        """Number of journal entries currently retained (introspection)."""
        return len(self._vertex_journal) + len(self._edge_journal)

    @property
    def journal_base(self) -> int:
        """The version at the last collection: the oldest retained entry's."""
        return self._vertex_base + self._edge_base

    def message_ids(self) -> List[str]:
        return list(self.destinations)

    def edges(self) -> List[_Edge]:
        return [(a, b) for a, succ in self.successors.items() for b in succ]

    # -------------------------------------------------------------- mutation
    def add_vertex(self, msg_id: str, dst: FrozenSet[GroupId]) -> None:
        """Insert a message vertex (idempotent, ignores forgotten messages)."""
        if msg_id in self.destinations or msg_id in self._forgotten:
            return
        self.destinations[msg_id] = dst
        self.successors[msg_id] = set()
        for group in dst:
            self._by_group.setdefault(group, set()).add(msg_id)
        self._vertex_journal.append((msg_id, dst))
        self.version += 1

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
        self._edge_journal.append((before, after))
        self.version += 1

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

    def merge_delta(self, delta: HistoryDelta) -> List[_Vertex]:
        """Integrate an ancestor's history delta (``update-hst``) and return
        the vertices it journaled, in order.

        Vertices and edges apply with :meth:`add_vertex`/:meth:`add_edge`
        semantics (idempotent, forgotten-filtered, journaled), with the
        per-entry attribute lookups hoisted out of the loops.  The received
        tuples themselves become the journal entries, so the vertices
        journaled are the vertex journal's tail.
        """
        if delta is None or delta.is_empty:
            return []
        destinations = self.destinations
        forgotten = self._forgotten
        successors = self.successors
        by_group = self._by_group
        vertex_journal = self._vertex_journal
        start = len(vertex_journal)
        for vertex in delta.vertices:
            msg_id, dst = vertex
            if msg_id in destinations or msg_id in forgotten:
                continue
            destinations[msg_id] = dst
            successors[msg_id] = set()
            for group in dst:
                members = by_group.get(group)
                if members is None:
                    by_group[group] = members = set()
                members.add(msg_id)
            vertex_journal.append(vertex)
        edge_journal = self._edge_journal
        edges_before = len(edge_journal)
        for edge in delta.edges:
            before, after = edge
            # A forgotten id is never live: successors.get refuses it.
            succ = successors.get(before)
            if succ is None or after in succ or after == before:
                continue
            if after not in destinations:
                continue
            succ.add(after)
            edge_journal.append(edge)
        added = vertex_journal[start:]
        self.version += len(added) + len(edge_journal) - edges_before
        return added

    # --------------------------------------------------------------- queries
    def depends(self, later: str, earlier: str) -> bool:
        """True iff ``later`` (transitively) depends on ``earlier``.

        Implements the paper's ``depend(m, m')``: there is a path of
        dependency edges from ``earlier`` to ``later``, found by the walk
        the delivery gate asks (:meth:`reached_from`).
        """
        return earlier != later and bool(self.reached_from((earlier,), (later,)))

    def ancestors_of(self, msg_id: str) -> Set[str]:
        """All messages ``msg_id`` transitively depends on: the vertices with
        a path of one or more edges to it (``msg_id`` itself only on a
        cycle).  Garbage collection's victim set and the tests' reference.

        A least fixpoint over :attr:`successors`: a vertex is an ancestor iff
        a successor is ``msg_id`` or an ancestor.  A pass tests each vertex
        not found yet (one set disjointness test, in C), newest first, and
        the walk ends on a pass that finds none; a path against insertion
        order costs a pass more per turn (DESIGN.md, "`History`").
        """
        found: Set[str] = set()
        targets = {msg_id}
        rest = list(self.successors.items())
        rest.reverse()
        while rest:
            kept: List[Tuple[str, Set[str]]] = []
            for item in rest:
                if targets.isdisjoint(item[1]):
                    kept.append(item)
                else:
                    found.add(item[0])
                    targets.add(item[0])
            if len(kept) == len(rest):
                break
            rest = kept
        return found

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
        self, shipped: int, shipped_vertices: int
    ) -> Tuple[_Vertices, _Edges, int, int]:
        """Changes journaled since a descendant was shipped ``shipped``
        entries, ``shipped_vertices`` of them vertices: ``(vertices, edges,
        version, vertex_version)``, the last two its new positions.

        Inside the retained journals that is one slice of each.  Below them
        it is the whole live history (:meth:`_live_content`): a collection
        dropped what tells such a caller's lack apart, and overshipping is
        safe (merges are idempotent and forgotten ids are filtered).
        """
        vertex_base = self._vertex_base
        if shipped < vertex_base + self._edge_base:
            vertices, edges = self._live_content()
        else:
            vertices = tuple(self._vertex_journal[shipped_vertices - vertex_base :])
            edges = tuple(
                self._edge_journal[shipped - shipped_vertices - self._edge_base :]
            )
        return vertices, edges, self.version, self.vertex_version

    def _live_content(self) -> Tuple[_Vertices, _Edges]:
        """Every live vertex and edge, as the tuples a delta ships."""
        return tuple(self.destinations.items()), tuple(self.edges())

    # --------------------------------------------------------------- pruning
    def collect_garbage(self, pivot_id: str) -> Set[str]:
        """Garbage-collect every message the pivot transitively depends on,
        empty the journals, and return the removed ids.

        Called when a ``flush`` message is delivered (§4.3): everything ordered
        before the flush has been resolved at every group that needed it and
        can be forgotten.  The group has just shipped the current version to
        every descendant, so no journal entry can ship again as a slice; a
        peer left below the new base is shipped the live history once
        (:meth:`changes_since`).  Returning the victim set lets callers update
        their own indexes in O(victims) instead of diffing two snapshots.

        Victims are closed under "depends on", so a survivor pointing at a
        victim is the pivot's ancestor: the pivot itself, on a cycle (a bug
        upstream).  Only its successors need mending.
        """
        victims = self.ancestors_of(pivot_id)
        victims.discard(pivot_id)
        successors = self.successors
        destinations = self.destinations
        for victim in victims:
            del successors[victim]
            del destinations[victim]
        by_group = self._by_group
        for group, members in list(by_group.items()):
            members -= victims
            if not members:
                del by_group[group]
        survivor = successors.get(pivot_id)
        if survivor and not survivor.isdisjoint(victims):
            survivor -= victims
        if self.last_delivered in victims:
            self.last_delivered = None
        self._forgotten |= victims
        self._vertex_base += len(self._vertex_journal)
        self._edge_base += len(self._edge_journal)
        self._vertex_journal.clear()
        self._edge_journal.clear()
        return victims

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
            "Entries in the change journal since the last garbage collection.",
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
