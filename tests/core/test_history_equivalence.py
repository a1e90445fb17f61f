"""Differential tests: indexed ``History`` vs a naive reference model.

The production :class:`~repro.core.history.History` maintains incremental
indexes (per-group destination index, change journal, watermark-based diff
tracking — see DESIGN.md).  This module re-implements the *seed* semantics in
the most obvious way possible — full scans everywhere, sent-sets instead of
watermarks — and drives both implementations through the same randomly
generated operation sequences (deliveries, merges, prunes, interleaved diffs
for several descendants), asserting at every step that queries and shipped
deltas are identical.

The forward point query the delivery gate asks (``reached_from``) is pinned
against the backward set it replaced (``ancestors_of``) the same way.
"""

from hypothesis import given, settings, strategies as st

from repro.core.history import History, HistoryDiffTracker
from repro.core.message import HistoryDelta, Message


# --------------------------------------------------------------- naive model
class NaiveHistory:
    """Reference implementation with no indexes: scans for every query."""

    def __init__(self):
        self.destinations = {}
        self.edge_set = set()
        self.last_delivered = None
        self.forgotten = set()

    def add_vertex(self, mid, dst):
        if mid in self.forgotten or mid in self.destinations:
            return
        self.destinations[mid] = dst

    def add_edge(self, before, after):
        if before in self.forgotten or after in self.forgotten:
            return
        if before not in self.destinations or after not in self.destinations:
            return
        if before == after:
            return
        self.edge_set.add((before, after))

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

    def messages_addressed_to(self, group):
        return {mid for mid, dst in self.destinations.items() if group in dst}

    def prune_before(self, pivot, keep=frozenset()):
        victims = self.ancestors_of(pivot) - set(keep) - {pivot}
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

    def forget(self, victims):
        victims = set(victims)
        for sent in self.sent_v.values():
            sent -= victims
        for sent in self.sent_e.values():
            sent -= {e for e in sent if e[0] in victims or e[1] in victims}


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


def apply_op(op, indexed, tracker, naive, naive_tracker):
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
        keep = {indexed.last_delivered} if indexed.last_delivered else set()
        victims = indexed.collect_garbage(pivot, keep=set(keep))
        naive_victims = naive.prune_before(pivot, keep=keep)
        assert victims == naive_victims
        tracker.forget(victims, history=indexed)
        naive_tracker.forget(naive_victims)
    else:  # diff
        _, descendant = op
        delta = tracker.diff_for(descendant, indexed)
        vertices, edges = naive_tracker.diff_for(descendant, naive)
        # iter_vertices/iter_edges cover both delta forms: a warm journal
        # slice and a cold packed snapshot + suffix must carry the same
        # logical content the naive tracker computes.
        assert set(delta.iter_vertices()) == vertices
        assert set(delta.iter_edges()) == edges
        assert delta.is_empty == (not vertices and not edges)


class TestDifferentialEquivalence:
    @given(operations)
    @settings(max_examples=120, deadline=None)
    def test_random_sequences_agree(self, ops):
        indexed, tracker = History(), HistoryDiffTracker()
        naive, naive_tracker = NaiveHistory(), NaiveDiffTracker()
        for op in ops:
            apply_op(op, indexed, tracker, naive, naive_tracker)

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
    @settings(max_examples=60, deadline=None)
    def test_final_diff_flushes_identical_remainder(self, ops):
        """After any sequence, one more diff ships the same remainder."""
        indexed, tracker = History(), HistoryDiffTracker()
        naive, naive_tracker = NaiveHistory(), NaiveDiffTracker()
        for op in ops:
            apply_op(op, indexed, tracker, naive, naive_tracker)
        for descendant in DESCENDANTS:
            delta = tracker.diff_for(descendant, indexed)
            vertices, edges = naive_tracker.diff_for(descendant, naive)
            assert set(delta.iter_vertices()) == vertices
            assert set(delta.iter_edges()) == edges
        # Both descendants are now fully caught up.
        for descendant in DESCENDANTS:
            assert tracker.diff_for(descendant, indexed).is_empty


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
        indexed, tracker = History(), HistoryDiffTracker()
        naive, naive_tracker = NaiveHistory(), NaiveDiffTracker()
        for index, op in enumerate(ops):
            apply_op(op, indexed, tracker, naive, naive_tracker)
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
        history.collect_garbage("c", keep={"c"})
        assert history.is_forgotten("a")
        assert history.reached_from(["a"], ["c"]) == set()
        assert history.reached_from(["c"], ["a", "b"]) == set()
        history.merge_delta(
            HistoryDelta(
                vertices=(("d", frozenset({0})),), edges=(("c", "d"), ("d", "c"))
            )
        )
        assert history.reached_from(["c"], ["c", "d"]) == {"c", "d"}
