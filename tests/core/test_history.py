"""Unit tests for FlexCast histories, their diffs and a group's channels."""

import pytest

from repro.core.flexcast import FlexCastGroup
from repro.core.history import History
from repro.core.message import EMPTY_DELTA, FlexCastMsg, HistoryDelta, Message
from repro.overlay.cdag import CDagOverlay
from repro.protocols.base import RecordingSink
from repro.sim.transport import RecordingTransport

A, B, C, D = "A", "B", "C", "D"


def msg(mid, dst, **kwargs):
    return Message(msg_id=mid, dst=frozenset(dst), **kwargs)


class TestRecordDelivery:
    def test_delivery_builds_total_order(self):
        h = History()
        h.record_delivery(msg("m1", {1}))
        h.record_delivery(msg("m2", {1, 2}))
        h.record_delivery(msg("m3", {1}))
        assert h.last_delivered == "m3"
        assert ("m1", "m2") in h.edges()
        assert ("m2", "m3") in h.edges()
        assert len(h) == 3 and h.num_edges == 2

    def test_first_delivery_has_no_predecessor(self):
        h = History()
        h.record_delivery(msg("m1", {1}))
        assert h.num_edges == 0

    def test_vertex_insertion_idempotent(self):
        h = History()
        h.add_vertex("m1", frozenset({1}))
        h.add_vertex("m1", frozenset({1}))
        assert len(h) == 1

    def test_self_edge_ignored(self):
        h = History()
        h.add_vertex("m1", frozenset({1}))
        h.add_edge("m1", "m1")
        assert h.num_edges == 0

    def test_edge_to_unknown_vertex_ignored(self):
        h = History()
        h.add_vertex("m1", frozenset({1}))
        h.add_edge("m1", "ghost")
        assert h.num_edges == 0


class TestMergeDelta:
    def test_merge_adds_vertices_and_edges(self):
        h = History()
        delta = HistoryDelta(
            vertices=(("m1", frozenset({1})), ("m2", frozenset({2}))),
            edges=(("m1", "m2"),),
        )
        h.merge_delta(delta)
        assert "m1" in h and "m2" in h
        assert h.depends("m2", "m1")

    def test_merge_none_or_empty_is_noop(self):
        h = History()
        h.merge_delta(None)
        h.merge_delta(HistoryDelta())
        assert len(h) == 0

    def test_merge_does_not_change_last_delivered(self):
        h = History()
        h.record_delivery(msg("mine", {1}))
        h.merge_delta(HistoryDelta(vertices=(("other", frozenset({2})),)))
        assert h.last_delivered == "mine"


class TestDependencies:
    def test_direct_and_transitive_dependency(self):
        h = History()
        for mid in ("m1", "m2", "m3"):
            h.record_delivery(msg(mid, {1}))
        assert h.depends("m2", "m1")
        assert h.depends("m3", "m1")  # transitive through m2
        assert not h.depends("m1", "m3")

    def test_depends_false_for_unknown_or_same_message(self):
        h = History()
        h.record_delivery(msg("m1", {1}))
        assert not h.depends("m1", "m1")
        assert not h.depends("m1", "ghost")

    def test_ancestors_of(self):
        h = History()
        for mid in ("m1", "m2", "m3"):
            h.record_delivery(msg(mid, {1}))
        assert h.ancestors_of("m3") == {"m1", "m2"}
        assert h.ancestors_of("m1") == set()

    def test_contains_message_to(self):
        h = History()
        h.add_vertex("m1", frozenset({1, 2}))
        h.add_vertex("m2", frozenset({2}))
        h.add_vertex("m3", frozenset({3}))
        assert h.contains_message_to(2)
        assert h.contains_message_to(3)
        assert not h.contains_message_to(4)

    def test_no_cycle_in_normal_histories(self):
        h = History()
        for mid in ("m1", "m2", "m3"):
            h.record_delivery(msg(mid, {1}))
        assert not h.has_cycle()

    def test_cycle_detection(self):
        h = History()
        h.add_vertex("a", frozenset({1}))
        h.add_vertex("b", frozenset({1}))
        h.add_edge("a", "b")
        h.add_edge("b", "a")
        assert h.has_cycle()


class TestPruning:
    def _history_with_chain(self, n=5):
        h = History()
        for i in range(n):
            h.record_delivery(msg(f"m{i}", {1}))
        return h

    def test_collect_garbage_removes_ancestors_of_pivot(self):
        h = self._history_with_chain()
        removed = h.collect_garbage("m3")
        assert removed == {"m0", "m1", "m2"}
        assert set(h.message_ids()) == {"m3", "m4"}
        assert h.journal_len == 0 and h.journal_base == h.version

    def test_prune_keeps_messages_not_ordered_before_the_pivot(self):
        # Only the pivot's ancestors go: a merged vertex with no path to the
        # pivot, and the pivot itself, stay live.
        h = self._history_with_chain()
        h.merge_delta(HistoryDelta(vertices=(("other", frozenset({2})),)))
        removed = h.collect_garbage("m4")
        assert removed == {"m0", "m1", "m2", "m3"}
        assert set(h.message_ids()) == {"m4", "other"}
        assert not h.is_forgotten("other")

    def test_pruned_messages_are_forgotten_on_merge(self):
        h = self._history_with_chain()
        h.collect_garbage("m3")
        h.merge_delta(HistoryDelta(vertices=(("m1", frozenset({1})),), edges=(("m1", "m3"),)))
        assert "m1" not in h
        assert h.forgotten_count == 3
        assert h.is_forgotten("m1")

    def test_prune_updates_edges(self):
        h = self._history_with_chain()
        h.collect_garbage("m3")
        assert all("m1" not in edge and "m2" not in edge for edge in h.edges())

    def test_full_delta_round_trip(self):
        h = self._history_with_chain(3)
        other = History()
        other.merge_delta(h.full_delta())
        assert set(other.message_ids()) == set(h.message_ids())
        assert set(other.edges()) == set(h.edges())


class TestDiffs:
    """``History.changes_since`` past a shipped version."""

    def test_first_diff_ships_everything(self):
        h = History()
        h.record_delivery(msg("m1", {1}))
        h.record_delivery(msg("m2", {1}))
        vertices, edges, _ = h.changes_since(0)
        assert {v[0] for v in vertices} == {"m1", "m2"}
        assert ("m1", "m2") in edges

    def test_second_diff_ships_only_new_content(self):
        h = History()
        h.record_delivery(msg("m1", {1}))
        _, _, shipped = h.changes_since(0)
        h.record_delivery(msg("m2", {1}))
        vertices, _, _ = h.changes_since(shipped)
        assert {v[0] for v in vertices} == {"m2"}

    def test_a_collection_empties_the_whole_journal(self):
        # Even one that removes nothing (the pivot has no ancestors): what a
        # later first contact gets is the live history.
        h = History()
        h.record_delivery(msg("m1", {1}))
        h.record_delivery(msg("m2", {1}))
        assert h.collect_garbage("m1") == set()
        assert h.journal_len == 0 and h.journal_base == h.version == 3
        assert h.changes_since(h.version) == ((), (), h.version)
        vertices, edges, _ = h.changes_since(0)
        assert {v[0] for v in vertices} == {"m1", "m2"}
        assert edges == (("m1", "m2"),)


def group_at(group_id):
    """A FlexCast group on the C-DAG ranked A < B < C < D."""
    transport = RecordingTransport(group_id)
    overlay = CDagOverlay([A, B, C, D])
    group = FlexCastGroup(group_id, overlay, transport, RecordingSink())
    return group, transport


def chain_at(group, n):
    """Record ``m0 .. m{n-1}`` as the group's own deliveries."""
    for i in range(n):
        group.history.record_delivery(msg(f"m{i}", {A}))


class TestChannels:
    """A group's per-peer ``Channel`` records (``FlexCastGroup._outgoing``)."""

    def test_diff_tracked_per_peer(self):
        group, _ = group_at(A)
        chain_at(group, 1)
        group._outgoing(B)
        seq, delta = group._outgoing(C)
        assert seq == 1
        assert {v[0] for v in delta.vertices} == {"m0"}
        assert group.channels[B].shipped == group.channels[C].shipped == 1

    def test_no_change_sends_the_empty_delta(self):
        group, _ = group_at(A)
        chain_at(group, 1)
        group._outgoing(B)
        seq, delta = group._outgoing(B)
        assert delta is EMPTY_DELTA
        assert seq == group.channels[B].sent == 2
        assert group.stats["empty_diffs"] == 1


class TestJournal:
    """The change journal contract (DESIGN.md "Channels: one record per
    peer")."""

    def test_version_counts_every_new_vertex_and_edge(self):
        h = History()
        assert h.version == 0
        h.record_delivery(msg("m1", {1}))
        assert h.version == 1  # vertex only, no predecessor edge
        h.record_delivery(msg("m2", {1}))
        assert h.version == 3  # vertex + edge

    def test_duplicate_insertions_do_not_grow_the_journal(self):
        h = History()
        h.record_delivery(msg("m1", {1}))
        h.record_delivery(msg("m2", {1}))
        before = h.version
        h.add_vertex("m1", frozenset({1}))
        h.add_edge("m1", "m2")
        assert h.version == before

    def test_changes_since_slices_past_the_watermark(self):
        h = History()
        h.record_delivery(msg("m1", {1}))
        watermark = h.version
        h.record_delivery(msg("m2", {1}))
        vertices, edges, version = h.changes_since(watermark)
        assert [mid for mid, _ in vertices] == ["m2"]
        assert edges == (("m1", "m2"),)
        assert version == h.version
        assert h.changes_since(version) == ((), (), version)

    def test_compaction_keeps_full_snapshot_for_new_descendants(self):
        h = History()
        for i in range(4):
            h.record_delivery(msg(f"m{i}", {1}))
        h.collect_garbage("m0")
        assert h.journal_len == 0
        # Below the base: the whole live history, as the tuples
        # full_delta ships.
        vertices, edges, version = h.changes_since(0)
        assert version == h.version
        assert set(vertices) == {(f"m{i}", frozenset({1})) for i in range(4)}
        assert set(edges) == {("m0", "m1"), ("m1", "m2"), ("m2", "m3")}
        full = h.full_delta()
        assert (set(vertices), set(edges)) == (set(full.vertices), set(full.edges))

    def test_the_journal_base_splits_slices_from_the_live_history(self):
        h = History()
        for i in range(4):
            h.record_delivery(msg(f"m{i}", {1}))
        base = h.version
        h.collect_garbage("m0")
        h.record_delivery(msg("m4", {1}))
        # At the base: the retained journal past it, nothing older.
        vertices, edges, version = h.changes_since(base)
        assert vertices == (("m4", frozenset({1})),)
        assert edges == (("m3", "m4"),)
        # One below: that entry was dropped, so everything live ships.
        vertices, edges, below = h.changes_since(base - 1)
        assert below == version == h.version
        assert {mid for mid, _ in vertices} == {f"m{i}" for i in range(5)}
        assert set(edges) == {(f"m{i}", f"m{i + 1}") for i in range(4)}


class TestGcCompaction:
    """Regression tests: pruning must never leak into later deltas, and a
    peer below the journal base converges."""

    def _chain(self, n):
        h = History()
        for i in range(n):
            h.record_delivery(msg(f"m{i}", {1}))
        return h

    def test_pruned_message_never_reappears_in_a_later_diff(self):
        # Vertices journaled *after* the version shipped to a descendant and
        # then pruned before the next diff must not be shipped.
        h = self._chain(3)
        _, _, shipped = h.changes_since(0)  # descendant knows m0..m2
        for i in range(3, 6):
            h.record_delivery(msg(f"m{i}", {1}))
        victims = h.collect_garbage("m5")
        assert victims == {"m0", "m1", "m2", "m3", "m4"}
        vertices, edges, _ = h.changes_since(shipped)
        assert {v[0] for v in vertices} == {"m5"}
        assert all(a not in victims and b not in victims for a, b in edges)

    def test_collection_leaves_shipped_versions_consistent(self):
        group, _ = group_at(A)
        chain_at(group, 4)
        group._outgoing(B)
        shipped = group.channels[B].shipped
        group._garbage_collect(msg("m3", {A}))
        # Shipped versions are absolute sequence numbers: a collection must
        # not move them, and a subsequent diff ships exactly the new content.
        assert group.channels[B].shipped == shipped
        group.history.record_delivery(msg("m4", {A}))
        _, delta = group._outgoing(B)
        assert {v[0] for v in delta.vertices} == {"m4"}
        assert delta.edges == (("m3", "m4"),)

    def test_collection_empties_the_journal(self):
        group, _ = group_at(A)
        chain_at(group, 5)
        group._outgoing(B)
        assert group.history.journal_len == 9  # 5 vertices + 4 edges
        group._garbage_collect(msg("m4", {A}))
        assert group.stats["journal_compacted"] == 9
        assert group.history.journal_len == 0
        assert group.history.journal_base == 9

    def test_a_lagging_peer_does_not_block_the_collection(self):
        group, _ = group_at(A)
        chain_at(group, 1)
        group._outgoing(C)  # C saw only m0
        group.history.record_delivery(msg("m1", {A}))
        group.history.record_delivery(msg("m2", {A}))
        group._outgoing(B)
        group._garbage_collect(msg("m2", {A}))
        assert group.history.journal_len == 0
        assert group.channels[C].shipped < group.history.journal_base
        # C still receives everything live it has not seen, and no more.
        _, delta = group._outgoing(C)
        assert {v[0] for v in delta.vertices} == {"m2"}
        assert delta.edges == ()

    def test_stale_descendant_cannot_pin_the_journal_forever(self):
        # A descendant this group stopped sending to must not make the
        # journal grow without bound: a collection empties it whatever was
        # shipped, and the stale descendant falls back to a full live
        # history on its next diff.
        h = History()
        h.record_delivery(msg("m0", {1}))
        _, _, stale = h.changes_since(0)  # descendant never contacted again
        for i in range(1, 400):
            h.record_delivery(msg(f"m{i}", {1}))
        h.collect_garbage(h.last_delivered)
        assert h.journal_len == 0
        assert h.journal_base > stale
        # The lapsed descendant still converges: the full live history once.
        vertices, _, shipped = h.changes_since(stale)
        assert {v[0] for v in vertices} == set(h.message_ids()) == {"m399"}
        assert h.changes_since(shipped) == ((), (), shipped)

    def test_new_peer_after_gc_gets_only_live_history(self):
        group, _ = group_at(A)
        chain_at(group, 4)
        group._outgoing(B)
        group._garbage_collect(msg("m3", {A}))
        _, delta = group._outgoing(C)  # brand-new peer
        assert {v[0] for v in delta.vertices} == {"m3"}
        assert delta.edges == ()

    def test_a_peer_below_the_base_gets_the_live_history_once(self):
        """B takes from its ancestor A and sends to C and D.  A flush that
        skips D empties the journal, so D, which was shipped less, falls
        below the base: it gets the whole live history once and journal
        slices after that."""
        group, transport = group_at(B)
        group.on_client_request(msg("m1", {B, C, D}))
        group.on_client_request(msg("m2", {B, C}))
        group.on_envelope(A, FlexCastMsg(
            message=msg("f", {A, B, C}, is_flush=True),
            history=HistoryDelta(vertices=(("f", frozenset({A, B, C})),)), seq=1,
        ))
        assert group.has_delivered("f")
        channels = group.channels
        assert channels[A].taken == 1 and channels[A].sent == 0
        assert channels[C].shipped == group.history.version
        assert group.history.journal_base == group.history.version
        assert channels[D].shipped < group.history.journal_base
        transport.sent.clear()

        def sent_to_d(mid):
            group.on_client_request(msg(mid, {B, D}))
            (envelope,) = [e for d, e in transport.sent if d == D]
            transport.sent.clear()
            return envelope.history

        first = sent_to_d("late-1")
        assert set(first.vertices) == set(group.history.destinations.items())
        assert set(first.edges) == set(group.history.edges()) == {("f", "late-1")}
        second = sent_to_d("late-2")
        assert second.vertices == (("late-2", frozenset({B, D})),)
        assert second.edges == (("late-1", "late-2"),)
