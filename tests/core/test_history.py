"""Unit tests for FlexCast histories and diff tracking."""

import pytest

from repro.core.history import History, HistoryDiffTracker
from repro.core.message import HistoryDelta, Message


def msg(mid, dst):
    return Message(msg_id=mid, dst=frozenset(dst))


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

    def test_prune_before_removes_ancestors_of_pivot(self):
        h = self._history_with_chain()
        removed = h.prune_before("m3")
        assert removed == 3
        assert set(h.message_ids()) == {"m3", "m4"}

    def test_prune_keeps_protected_ids(self):
        h = self._history_with_chain()
        h.prune_before("m4", keep={"m2"})
        assert "m2" in h and "m1" not in h

    def test_pruned_messages_are_forgotten_on_merge(self):
        h = self._history_with_chain()
        h.prune_before("m3")
        h.merge_delta(HistoryDelta(vertices=(("m1", frozenset({1})),), edges=(("m1", "m3"),)))
        assert "m1" not in h
        assert h.forgotten_count == 3
        assert h.is_forgotten("m1")

    def test_prune_updates_edges(self):
        h = self._history_with_chain()
        h.prune_before("m3")
        assert all("m1" not in edge and "m2" not in edge for edge in h.edges())

    def test_full_delta_round_trip(self):
        h = self._history_with_chain(3)
        other = History()
        other.merge_delta(h.full_delta())
        assert set(other.message_ids()) == set(h.message_ids())
        assert set(other.edges()) == set(h.edges())


class TestDiffTracker:
    def test_first_diff_ships_everything(self):
        h = History()
        h.record_delivery(msg("m1", {1}))
        h.record_delivery(msg("m2", {1}))
        tracker = HistoryDiffTracker()
        delta = tracker.diff_for(7, h)
        assert {v[0] for v in delta.vertices} == {"m1", "m2"}
        assert ("m1", "m2") in delta.edges

    def test_second_diff_ships_only_new_content(self):
        h = History()
        h.record_delivery(msg("m1", {1}))
        tracker = HistoryDiffTracker()
        tracker.diff_for(7, h)
        h.record_delivery(msg("m2", {1}))
        delta = tracker.diff_for(7, h)
        assert {v[0] for v in delta.vertices} == {"m2"}

    def test_diff_tracked_per_descendant(self):
        h = History()
        h.record_delivery(msg("m1", {1}))
        tracker = HistoryDiffTracker()
        tracker.diff_for(7, h)
        delta_for_other = tracker.diff_for(8, h)
        assert {v[0] for v in delta_for_other.vertices} == {"m1"}

    def test_no_change_returns_empty_delta(self):
        h = History()
        h.record_delivery(msg("m1", {1}))
        tracker = HistoryDiffTracker()
        tracker.diff_for(7, h)
        assert tracker.diff_for(7, h).is_empty

    def test_forget_holds_no_per_message_state(self):
        # What forget guarantees is journal compaction (TestJournal below);
        # the tracker itself keeps only absolute watermarks, so forgetting
        # ids without a history to compact changes nothing a diff can see.
        h = History()
        h.record_delivery(msg("m1", {1}))
        tracker = HistoryDiffTracker()
        tracker.diff_for(7, h)
        assert tracker.forget(["m1"]) == 0
        assert tracker.watermark(7) == h.version
        assert tracker.diff_for(7, h).is_empty


class TestJournal:
    """The change journal / watermark contract (DESIGN.md)."""

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
        h.compact_journal(h.version)
        assert h.journal_len == 0
        # Below the compacted base: the whole live history, as the tuples
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
        h.compact_journal(base)
        h.record_delivery(msg("m4", {1}))
        # At the base: the retained journal past it, nothing older.
        vertices, edges, version = h.changes_since(base)
        assert vertices == (("m4", frozenset({1})),)
        assert edges == (("m3", "m4"),)
        # One below: that entry was compacted, so everything live ships.
        vertices, edges, below = h.changes_since(base - 1)
        assert below == version == h.version
        assert {mid for mid, _ in vertices} == {f"m{i}" for i in range(5)}
        assert set(edges) == {(f"m{i}", f"m{i + 1}") for i in range(4)}


class TestGcDiffTrackerInteraction:
    """Regression tests: pruning must never leak into later deltas."""

    def _chain(self, n):
        h = History()
        for i in range(n):
            h.record_delivery(msg(f"m{i}", {1}))
        return h

    def test_pruned_message_never_reappears_in_a_later_diff(self):
        # Vertices journaled *after* the descendant's watermark and then
        # pruned before the next diff must not be shipped.
        h = self._chain(3)
        tracker = HistoryDiffTracker()
        tracker.diff_for(7, h)  # descendant knows m0..m2
        for i in range(3, 6):
            h.record_delivery(msg(f"m{i}", {1}))
        victims = h.collect_garbage("m5", keep={h.last_delivered})
        assert victims == {"m0", "m1", "m2", "m3", "m4"}
        tracker.forget(victims, history=h)
        delta = tracker.diff_for(7, h)
        shipped = {v[0] for v in delta.vertices}
        assert not (shipped & victims)
        assert all(a not in victims and b not in victims for a, b in delta.edges)

    def test_forget_leaves_watermarks_consistent(self):
        h = self._chain(4)
        tracker = HistoryDiffTracker()
        tracker.diff_for(7, h)
        watermark = tracker.watermark(7)
        victims = h.collect_garbage("m3", keep={h.last_delivered})
        tracker.forget(victims, history=h)
        # Watermarks are absolute sequence numbers: compaction must not move
        # them, and a subsequent diff ships exactly the new content.
        assert tracker.watermark(7) == watermark
        h.record_delivery(msg("m4", {1}))
        delta = tracker.diff_for(7, h)
        assert {v[0] for v in delta.vertices} == {"m4"}
        assert delta.edges == (("m3", "m4"),)

    def test_forget_compacts_the_journal_up_to_the_lowest_watermark(self):
        h = self._chain(5)
        tracker = HistoryDiffTracker()
        tracker.diff_for(7, h)
        assert h.journal_len == 9  # 5 vertices + 4 edges
        victims = h.collect_garbage("m4", keep=set())
        dropped = tracker.forget(victims, history=h)
        assert dropped == 9
        assert h.journal_len == 0 and h.journal_base == 9

    def test_lagging_descendant_blocks_compaction(self):
        h = self._chain(3)
        tracker = HistoryDiffTracker()
        tracker.diff_for(7, h)
        lag_watermark = 1
        tracker._watermarks[8] = lag_watermark  # descendant 8 saw only m0
        victims = h.collect_garbage("m2", keep=set())
        tracker.forget(victims, history=h)
        assert h.journal_base == lag_watermark
        # Descendant 8 still receives everything live it has not seen.
        delta = tracker.diff_for(8, h)
        assert {v[0] for v in delta.vertices} == {"m2"}

    def test_stale_descendant_cannot_pin_the_journal_forever(self):
        # A descendant this group stopped sending to must not make the
        # journal grow without bound: compaction is capped relative to the
        # live history size and the stale descendant falls back to a full
        # live history on its next diff.
        h = History()
        tracker = HistoryDiffTracker()
        h.record_delivery(msg("m0", {1}))
        tracker.diff_for(9, h)  # descendant 9 never contacted again
        stale_watermark = tracker.watermark(9)
        for i in range(1, 400):
            h.record_delivery(msg(f"m{i}", {1}))
        victims = h.collect_garbage(h.last_delivered, keep={h.last_delivered})
        tracker.forget(victims, history=h)
        live = len(h) + h.num_edges
        assert h.journal_len <= HistoryDiffTracker._JOURNAL_SLACK * live + HistoryDiffTracker._JOURNAL_MIN
        assert h.journal_base > stale_watermark
        # The lapsed descendant still converges: the full live history once.
        delta = tracker.diff_for(9, h)
        assert {v[0] for v in delta.vertices} == set(h.message_ids())
        assert tracker.diff_for(9, h).is_empty

    def test_new_descendant_after_gc_gets_only_live_history(self):
        h = self._chain(4)
        tracker = HistoryDiffTracker()
        tracker.diff_for(7, h)
        victims = h.collect_garbage("m3", keep=set())
        tracker.forget(victims, history=h)
        delta = tracker.diff_for(8, h)  # brand-new descendant
        assert {v[0] for v in delta.vertices} == {"m3"}
        assert delta.edges == ()
