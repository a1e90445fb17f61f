"""Differential tests: a below-base first contact vs the per-item path.

A descendant whose shipped version is below the sender's journal base (the
version at its last garbage collection) receives the sender's whole live
history, as the same ``vertices`` and ``edges`` tuples a journal slice ships
(:meth:`History.changes_since`).  This module pins what that form must
guarantee:

* merging it gives the same indexes, and the same ``version``, as applying
  its entries one by one with :meth:`History.add_vertex` /
  :meth:`History.add_edge`, into an empty history or an overlapping one, and
  a target's forgotten ids stay forgotten;
* merging it twice changes nothing;
* whole protocol runs deliver *bit-identical* per-group sequences whether
  first contacts take the below-base form or the journal slice, and whether
  every diff overships the whole live history or not, unbatched, batched,
  and with garbage collection.
"""

from dataclasses import replace

import pytest

from repro.core.history import History
from repro.core.message import HistoryDelta, Message
from repro.fuzz.harness import run_scenario
from repro.fuzz.profiles import apply_profile
from repro.fuzz.workload import generate_scenario


def build_source(length=40, extra_edges=True, prune=False):
    """A source history with chain + cross edges, optionally GC'd."""
    history = History()
    for i in range(length):
        history.record_delivery(Message(msg_id=f"m{i}", dst=frozenset({i % 4})))
    if extra_edges:
        for i in range(0, length - 5, 5):
            history.add_edge(f"m{i}", f"m{i + 5}")
    if prune:
        history.collect_garbage(f"m{length // 2}")
    return history


def empty_journal(history):
    """Empty ``history``'s journal with a collection that removes nothing:
    its pivot is a vertex with no ancestors."""
    root = next(mid for mid, before in history.predecessors.items() if not before)
    assert history.collect_garbage(root) == set()
    assert history.journal_len == 0


def first_contact(source):
    """The delta a brand-new descendant receives after a collection emptied
    ``source``'s journal: the below-base branch of ``changes_since``."""
    empty_journal(source)
    vertices, edges, _ = source.changes_since(0)
    return HistoryDelta(vertices, edges)


def per_item_copy(delta, target=None):
    """The reference path: apply the delta entry by entry."""
    if target is None:  # note: an empty History is falsy (len 0)
        target = History()
    for mid, dst in delta.vertices:
        target.add_vertex(mid, dst)
    for before, after in delta.edges:
        target.add_edge(before, after)
    return target


def assert_same_dag(a, b):
    assert a.destinations == b.destinations
    assert a.successors == b.successors
    assert a.predecessors == b.predecessors
    assert a._by_group == b._by_group


class TestIndexEquivalence:
    def test_cold_merge_matches_per_item_merge(self):
        delta = first_contact(build_source())
        merged = History()
        merged.merge_delta(delta)
        reference = per_item_copy(delta)
        assert_same_dag(merged, reference)
        # Same version: a descendant's shipped version advanced by either path
        # slices the same journal suffix afterwards.
        assert merged.version == reference.version

    def test_cold_merge_into_nonempty_history_matches(self):
        # The target already holds an overlapping prefix, so both paths must
        # idempotently skip the duplicates.
        delta = first_contact(build_source())
        prefix = build_source(length=15, extra_edges=False)
        merged = per_item_copy(prefix.full_delta())
        reference = per_item_copy(prefix.full_delta())
        merged.merge_delta(delta)
        per_item_copy(delta, target=reference)
        assert_same_dag(merged, reference)
        assert merged.version == reference.version

    def test_forgotten_ids_never_resurrected_by_cold_merge(self):
        # A target that garbage-collected a message must filter it out of a
        # whole-history delta exactly like the per-entry path does.
        delta = first_contact(build_source())
        merged = per_item_copy(build_source(length=20, extra_edges=False).full_delta())
        reference = per_item_copy(build_source(length=20, extra_edges=False).full_delta())
        for target in (merged, reference):
            target.collect_garbage("m10")
        merged.merge_delta(delta)
        per_item_copy(delta, target=reference)
        assert_same_dag(merged, reference)
        assert not any(target.is_forgotten(mid) and mid in target.destinations
                       for target in (merged, reference)
                       for mid in ("m10",))
        assert "m9" not in merged.destinations  # ancestor of the pivot

    def test_gc_pruned_source_ships_only_live_content(self):
        source = build_source(prune=True)
        delta = first_contact(source)
        assert {mid for mid, _ in delta.vertices} == set(source.message_ids())
        assert not any(source.is_forgotten(mid) for mid, _ in delta.vertices)
        merged = History()
        merged.merge_delta(delta)
        assert set(merged.message_ids()) == set(source.message_ids())
        assert set(merged.edges()) == set(source.edges())

    def test_merged_history_serves_full_cold_diff_to_descendants(self):
        # A history built from a first contact, once collected itself, hands
        # its own new descendants the complete live content the same way.
        source = build_source()
        merged = History()
        merged.merge_delta(first_contact(source))
        delta = first_contact(merged)
        assert set(delta.vertices) == set(source.full_delta().vertices)
        assert set(delta.edges) == set(source.edges())

    def test_cold_merge_is_idempotent(self):
        delta = first_contact(build_source())
        target = History()
        target.merge_delta(delta)
        merged = (dict(target.destinations), set(target.edges()), target.version)
        target.merge_delta(delta)
        assert (dict(target.destinations), set(target.edges()), target.version) == merged


#: Seeds matching the batching differential suite's generator coverage.
SEEDS = (3, 7, 11)
PROFILES = ("none", "dup", "loss")


def empty_before(serve):
    """``History.changes_since`` that first empties the journal for each
    shipped version ``serve`` picks, so that caller (and every other peer
    behind the version) takes the below-base branch (the whole live history)
    instead of a journal slice."""
    changes_since = History.changes_since

    def patched(self, watermark):
        if watermark < self.version and serve(watermark):
            empty_journal(self)
        return changes_since(self, watermark)

    return patched


class TestDeliverySequenceEquivalence:
    """The form a diff takes must not change any delivery.

    Emptying the journal just before a first contact sends that contact the
    whole live history; left alone, it gets the journal slice.  Both
    carry the same logical content, so whole runs must be *bit-identical* —
    same per-group delivery sequences, not just the same sets.
    """

    def _run(self, seed, batch_window, monkeypatch, serve=None, profile="none",
             gc_interval_ms=None):
        if serve is not None:
            monkeypatch.setattr(History, "changes_since", empty_before(serve))
        scenario = apply_profile(generate_scenario(seed, profile), profile)
        scenario = replace(scenario, batch_window=batch_window)
        if gc_interval_ms is not None:
            scenario = replace(scenario, gc_interval_ms=gc_interval_ms)
        result = run_scenario(scenario)
        monkeypatch.undo()
        return result

    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_sequences_identical(self, seed, profile, monkeypatch):
        cold = self._run(seed, 1, monkeypatch, lambda w: w == 0, profile)
        warm = self._run(seed, 1, monkeypatch, profile=profile)
        assert cold.sequences == warm.sequences
        assert cold.violations == warm.violations == []

    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_sequences_identical_batched(self, seed, profile, monkeypatch):
        cold = self._run(seed, 16, monkeypatch, lambda w: w == 0, profile)
        warm = self._run(seed, 16, monkeypatch, profile=profile)
        assert cold.sequences == warm.sequences
        assert cold.violations == warm.violations == []

    @pytest.mark.parametrize("profile", ("none", "loss"))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_overshipping_every_diff_changes_nothing(self, seed, profile, monkeypatch):
        # Every diff ships the whole live history while flushes prune it:
        # merges must absorb the overlap and filter every forgotten id.
        every = self._run(seed, 1, monkeypatch, lambda w: True, profile, 200.0)
        warm = self._run(seed, 1, monkeypatch, profile=profile, gc_interval_ms=200.0)
        assert every.sequences == warm.sequences
        assert every.violations == warm.violations == []
        assert any(every.sequences.values())
