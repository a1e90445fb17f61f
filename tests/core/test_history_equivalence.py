"""Differential tests: indexed ``History`` vs a naive reference model.

The production :class:`~repro.core.history.History` maintains incremental
indexes (per-group destination index, change journal, diffs sliced past the
version shipped to each descendant — see DESIGN.md).  This module
re-implements the *seed* semantics in the most obvious way possible — full
scans everywhere, sent-sets instead of shipped versions — and drives both
implementations through the same randomly generated operation sequences
(deliveries, merges, prunes, interleaved diffs for several descendants),
asserting at every step that queries and shipped deltas are identical.
Shipped deltas are compared twice: as sets against the seed's sent-set diff,
and entry for entry, in order, against a slice of the naive model's list
journal (the simulator's bit-identity rests on that order).  Every
collection empties the journal, so a descendant shipped less than the
version at the last collection is below the journal base: it is shipped the
whole live history, which no journal slice can name, so that diff is
compared as sets only.  The indexed side makes the call a group's channels
make: ``changes_since`` from each descendant's shipped version.

The forward point query the delivery gate asks (``reached_from``) is pinned
against the backward set it replaced (``ancestors_of``) the same way.
"""

from hypothesis import example, given, settings, strategies as st

from repro.core.history import History
from repro.core.message import HistoryDelta, Message


# --------------------------------------------------------------- naive model
class NaiveHistory:
    """Reference implementation with no indexes: scans for every query."""

    def __init__(self):
        self.destinations = {}
        self.edge_set = set()
        self.last_delivered = None
        self.forgotten = set()
        # Every effective insertion, in order; never compacted.
        self.journal = []

    def add_vertex(self, mid, dst):
        if mid in self.forgotten or mid in self.destinations:
            return
        self.destinations[mid] = dst
        self.journal.append(("v", (mid, dst)))

    def add_edge(self, before, after):
        if before in self.forgotten or after in self.forgotten:
            return
        if before not in self.destinations or after not in self.destinations:
            return
        if before == after or (before, after) in self.edge_set:
            return
        self.edge_set.add((before, after))
        self.journal.append(("e", (before, after)))

    def record_delivery(self, message):
        self.add_vertex(message.msg_id, message.dst)
        if self.last_delivered is not None and self.last_delivered != message.msg_id:
            self.add_edge(self.last_delivered, message.msg_id)
        self.last_delivered = message.msg_id

    def merge_delta(self, delta):
        for mid, dst in delta.vertices:
            self.add_vertex(mid, dst)
        for before, after in delta.edges:
            self.add_edge(before, after)

    def depends(self, later, earlier):
        if earlier == later or earlier not in self.destinations:
            return False
        frontier = {earlier}
        seen = set()
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            for a, b in self.edge_set:
                if a == node:
                    if b == later:
                        return True
                    frontier.add(b)
        return False

    def ancestors_of(self, mid):
        result = set()
        frontier = {a for a, b in self.edge_set if b == mid}
        while frontier:
            node = frontier.pop()
            if node in result:
                continue
            result.add(node)
            frontier.update(a for a, b in self.edge_set if b == node)
        return result

    def journal_since(self, position):
        """Live vertices and edges journaled at or after ``position``, in
        journal order."""
        vertices, edges = [], []
        for kind, entry in self.journal[position:]:
            if kind == "v" and entry[0] in self.destinations:
                vertices.append(entry)
            elif kind == "e" and entry in self.edge_set:
                edges.append(entry)
        return tuple(vertices), tuple(edges)

    def messages_addressed_to(self, group):
        return {mid for mid, dst in self.destinations.items() if group in dst}

    def prune_before(self, pivot):
        victims = self.ancestors_of(pivot) - {pivot}
        for victim in victims:
            self.destinations.pop(victim, None)
            if self.last_delivered == victim:
                self.last_delivered = None
        self.edge_set = {
            (a, b) for a, b in self.edge_set if a not in victims and b not in victims
        }
        self.forgotten.update(victims)
        return victims


class NaiveDiffTracker:
    """The seed's sent-set diff: rescan everything, subtract what was sent."""

    def __init__(self):
        self.sent_v = {}
        self.sent_e = {}
        # descendant -> position in the naive journal shipped up to.
        self.position = {}

    def diff_for(self, descendant, naive):
        sent_v = self.sent_v.setdefault(descendant, set())
        sent_e = self.sent_e.setdefault(descendant, set())
        vertices = {
            (mid, dst) for mid, dst in naive.destinations.items() if mid not in sent_v
        }
        edges = naive.edge_set - sent_e
        sent_v.update(mid for mid, _ in vertices)
        sent_e.update(edges)
        return vertices, edges

    def ordered_diff_for(self, descendant, naive):
        """The warm diff as a journal slice: live entries past the
        descendant's position, in the order they were journaled."""
        shipped = naive.journal_since(self.position.get(descendant, 0))
        self.position[descendant] = len(naive.journal)
        return shipped

    def forget(self, victims):
        victims = set(victims)
        for sent in self.sent_v.values():
            sent -= victims
        for sent in self.sent_e.values():
            sent -= {e for e in sent if e[0] in victims or e[1] in victims}


class Shipped:
    """The indexed side's channels: the journal version shipped to each
    descendant, as ``Channel.shipped``, diffed with the production call."""

    def __init__(self):
        self.versions = {}

    def diff_for(self, descendant, history):
        vertices, edges, self.versions[descendant] = history.changes_since(
            self.versions.get(descendant, 0)
        )
        return vertices, edges


# ---------------------------------------------------------------- operations
GROUPS = list(range(5))
DESCENDANTS = ["d1", "d2"]

_op_deliver = st.tuples(
    st.just("deliver"),
    st.integers(0, 60),
    st.sets(st.sampled_from(GROUPS), min_size=1, max_size=3),
)
_op_merge = st.tuples(
    st.just("merge"),
    st.lists(
        st.tuples(st.integers(0, 60), st.sets(st.sampled_from(GROUPS), min_size=1, max_size=2)),
        min_size=0,
        max_size=4,
    ),
    st.lists(st.tuples(st.integers(0, 60), st.integers(0, 60)), min_size=0, max_size=4),
)
_op_prune = st.tuples(st.just("prune"), st.integers(0, 60))
_op_diff = st.tuples(st.just("diff"), st.sampled_from(DESCENDANTS))

operations = st.lists(
    st.one_of(_op_deliver, _op_merge, _op_prune, _op_diff), min_size=1, max_size=40
)

#: A diff, a garbage collection of entries journaled after it, the next
#: diff: the warm slice must drop what the collection removed.
_DIFF_PRUNE_DIFF = [
    ("deliver", 1, {0}),
    ("diff", "d1"),
    ("deliver", 2, {0}),
    ("deliver", 3, {0}),
    ("prune", 3),
    ("diff", "d1"),
]


#: Two descendants fall behind, a collection empties the journal past
#: both, and each is shipped the live history, which re-sends what it
#: already had.
_BEHIND_COMPACTED = [
    ("deliver", 1, {0}),
    ("diff", "d1"),
    ("deliver", 2, {1}),
    ("diff", "d2"),
    ("deliver", 3, {0}),
    ("deliver", 4, {2}),
    ("prune", 2),
    ("diff", "d1"),
    ("diff", "d2"),
]


def assert_same_diff(descendant, indexed, shipped, naive, naive_tracker):
    """Diff ``descendant`` on both sides and compare what ships."""
    below_base = shipped.versions.get(descendant, 0) < indexed.journal_base
    delta = shipped.diff_for(descendant, indexed)
    vertices, edges = naive_tracker.diff_for(descendant, naive)
    ordered = naive_tracker.ordered_diff_for(descendant, naive)
    if below_base:
        # The whole live history: what the descendant was sent before ships
        # again (the seed's diff, for a first contact).
        vertices, edges = set(naive.destinations.items()), naive.edge_set
    assert set(delta[0]) == vertices
    assert set(delta[1]) == edges
    if not below_base:
        assert delta == ordered


def apply_op(op, indexed, shipped, naive, naive_tracker):
    """Apply one operation to both implementations; compare shipped deltas."""
    kind = op[0]
    if kind == "deliver":
        _, idx, dst = op
        message = Message(msg_id=f"m{idx}", dst=frozenset(dst))
        indexed.record_delivery(message)
        naive.record_delivery(message)
    elif kind == "merge":
        _, vertices, edges = op
        delta = HistoryDelta(
            vertices=tuple((f"m{i}", frozenset(dst)) for i, dst in vertices),
            edges=tuple((f"m{a}", f"m{b}") for a, b in edges),
        )
        indexed.merge_delta(delta)
        naive.merge_delta(delta)
    elif kind == "prune":
        _, idx = op
        pivot = f"m{idx}"
        if pivot not in indexed:
            return
        victims = indexed.collect_garbage(pivot)
        naive_victims = naive.prune_before(pivot)
        assert victims == naive_victims
        assert indexed.journal_len == 0
        naive_tracker.forget(naive_victims)
    else:  # diff
        assert_same_diff(op[1], indexed, shipped, naive, naive_tracker)
    # Both journals count the same effective insertions.
    assert indexed.version == len(naive.journal)


class TestDifferentialEquivalence:
    @given(operations)
    @example(_BEHIND_COMPACTED)
    @example(_DIFF_PRUNE_DIFF)
    @settings(max_examples=120, deadline=None)
    def test_random_sequences_agree(self, ops):
        indexed, shipped = History(), Shipped()
        naive, naive_tracker = NaiveHistory(), NaiveDiffTracker()
        for op in ops:
            apply_op(op, indexed, shipped, naive, naive_tracker)

        # Structural equality.
        assert set(indexed.message_ids()) == set(naive.destinations)
        assert set(indexed.edges()) == naive.edge_set
        assert indexed.last_delivered == naive.last_delivered

        # Query equality: destination index vs full scan.
        for group in GROUPS:
            assert indexed.contains_message_to(group) == bool(
                naive.messages_addressed_to(group)
            )

        # Reachability equality over every live pair (histories are small).
        ids = sorted(indexed.message_ids())
        for later in ids:
            for earlier in ids:
                assert indexed.depends(later, earlier) == naive.depends(
                    later, earlier
                ), (later, earlier)

    @given(operations)
    @example(_BEHIND_COMPACTED)
    @settings(max_examples=60, deadline=None)
    def test_final_diff_flushes_identical_remainder(self, ops):
        """After any sequence, one more diff ships the same remainder (the
        live history, for a descendant below the journal base)."""
        indexed, shipped = History(), Shipped()
        naive, naive_tracker = NaiveHistory(), NaiveDiffTracker()
        for op in ops:
            apply_op(op, indexed, shipped, naive, naive_tracker)
        for descendant in DESCENDANTS:
            assert_same_diff(descendant, indexed, shipped, naive, naive_tracker)
        # Both descendants are now fully caught up.
        for descendant in DESCENDANTS:
            assert shipped.diff_for(descendant, indexed) == ((), ())

    @given(operations)
    @example(_BEHIND_COMPACTED)
    @example(_DIFF_PRUNE_DIFF)
    @settings(max_examples=60, deadline=None)
    def test_every_retained_journal_entry_is_live(self, ops):
        """A collection empties the journal, so a slice needs no liveness
        filter: after every step each retained entry is a live vertex or
        edge, exactly as the history holds it."""
        indexed, shipped = History(), Shipped()
        naive, naive_tracker = NaiveHistory(), NaiveDiffTracker()
        for op in ops:
            apply_op(op, indexed, shipped, naive, naive_tracker)
            vertices, edges, _ = indexed.changes_since(indexed.journal_base)
            assert len(vertices) + len(edges) == indexed.journal_len
            assert set(vertices) <= set(indexed.destinations.items())
            assert set(edges) <= set(indexed.edges())

    def test_a_descendant_below_the_base_is_sent_the_live_history(self):
        indexed, shipped = History(), Shipped()
        naive, naive_tracker = NaiveHistory(), NaiveDiffTracker()
        for op in _BEHIND_COMPACTED[:-2]:
            apply_op(op, indexed, shipped, naive, naive_tracker)
        assert indexed.journal_len == 0
        assert shipped.versions["d1"] < indexed.journal_base
        assert shipped.versions["d2"] < indexed.journal_base
        vertices, edges = shipped.diff_for("d1", indexed)
        assert set(vertices) == set(naive.destinations.items())
        assert {mid for mid, _ in vertices} == {"m2", "m3", "m4"}
        assert set(edges) == naive.edge_set == {("m2", "m3"), ("m3", "m4")}


# ------------------------------------------------- forward vs backward query
#: Ids 61..64 are never created by any operation: absent from every history.
_ids = st.integers(0, 64).map(lambda i: f"m{i}")
_queries = st.lists(
    st.tuples(st.lists(_ids, max_size=3), st.lists(_ids, max_size=6)),
    min_size=1,
    max_size=6,
)


def _backward(history, sources, targets):
    """``reached_from`` as the gate used to ask it: one full ancestor set
    per target."""
    return {
        t for t in targets if any(m in history.ancestors_of(t) for m in sources)
    }


class TestReachedFromEqualsAncestorMembership:
    @given(operations, _queries)
    @settings(max_examples=150, deadline=None)
    def test_agrees_after_every_operation(self, ops, queries):
        """Merged edges are arbitrary pairs, so the DAGs include cycles
        (``m == t`` reachable from itself); prunes leave forgotten ids."""
        indexed, shipped = History(), Shipped()
        naive, naive_tracker = NaiveHistory(), NaiveDiffTracker()
        for index, op in enumerate(ops):
            apply_op(op, indexed, shipped, naive, naive_tracker)
            sources, targets = queries[index % len(queries)]
            expected = _backward(indexed, sources, targets)
            assert indexed.reached_from(sources, targets) == expected
            assert expected == _backward(naive, sources, targets)
        for mid in indexed.message_ids():
            everything = indexed.message_ids()
            assert indexed.reached_from([mid], everything) == _backward(
                indexed, [mid], everything
            )

    def test_forgotten_absent_and_self(self):
        history = History()
        for mid in ("a", "b", "c"):
            history.record_delivery(Message(msg_id=mid, dst=frozenset({0})))
        assert history.reached_from(["a"], ["a", "b", "c", "ghost"]) == {"b", "c"}
        assert history.reached_from(["ghost"], ["a", "b"]) == set()
        assert history.reached_from(["a", "b"], ["b"]) == {"b"}
        assert history.reached_from([], ["a", "b"]) == set()
        history.collect_garbage("c")
        assert history.is_forgotten("a")
        assert history.reached_from(["a"], ["c"]) == set()
        assert history.reached_from(["c"], ["a", "b"]) == set()
        history.merge_delta(
            HistoryDelta(
                vertices=(("d", frozenset({0})),), edges=(("c", "d"), ("d", "c"))
            )
        )
        assert history.reached_from(["c"], ["c", "d"]) == {"c", "d"}
