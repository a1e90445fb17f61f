"""Differential tests: snapshot-install merge vs the per-item merge path.

The cold-sync tentpole replaced "re-materialise and re-apply every vertex and
edge tuple" with a packed :class:`~repro.core.message.HistorySnapshot` that
:meth:`~repro.core.history.History.merge_delta` bulk-installs (wholesale index
swap on a fresh history, batched incremental application otherwise).  This
module pins the equivalence contract from DESIGN.md:
applying the same logical content through either path must produce

* identical indexes (destinations, successors/predecessors, per-group index)
  and identical ``version`` (so descendants' diff watermarks line up);
* bit-identical per-group delivery sequences when whole protocol runs are
  driven with the snapshot path forced on vs forced off, in plain, hybrid
  and batched modes.
"""

from dataclasses import replace

import pytest

from repro.core.history import History, HistoryDiffTracker
from repro.core.message import Message
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
        history.collect_garbage(f"m{length // 2}", keep={history.last_delivered})
    return history


def per_item_copy(delta, target=None):
    """The reference path: apply the delta entry by entry."""
    if target is None:  # note: an empty History is falsy (len 0)
        target = History()
    for mid, dst in delta.iter_vertices():
        target.add_vertex(mid, dst)
    for before, after in delta.iter_edges():
        target.add_edge(before, after)
    return target


def assert_same_dag(a, b):
    assert a.destinations == b.destinations
    assert a.successors == b.successors
    assert a.predecessors == b.predecessors
    assert a._by_group == b._by_group


class TestIndexEquivalence:
    def test_fresh_install_matches_per_item_merge(self):
        source = build_source()
        delta = source.cold_delta()
        assert delta.snapshot is not None
        installed = History()
        installed.merge_delta(delta)
        reference = per_item_copy(delta)
        assert_same_dag(installed, reference)
        # Same version: a descendant's watermark advanced by either path
        # slices the same journal suffix afterwards.
        assert installed.version == reference.version

    def test_install_into_nonempty_history_matches(self):
        # The non-fresh path: the target already holds an overlapping prefix,
        # so both paths must idempotently skip the duplicates.
        source = build_source()
        delta = source.cold_delta()
        prefix = build_source(length=15, extra_edges=False)
        installed = per_item_copy(prefix.full_delta())
        reference = per_item_copy(prefix.full_delta())
        installed.merge_delta(delta)
        per_item_copy(delta, target=reference)
        assert_same_dag(installed, reference)
        assert installed.version == reference.version

    def test_forgotten_ids_never_resurrected_by_install(self):
        # A target that garbage-collected a message must filter it out of a
        # bulk install exactly like the per-entry path does.
        source = build_source()
        delta = source.cold_delta()
        installed = per_item_copy(build_source(length=20, extra_edges=False).full_delta())
        reference = per_item_copy(build_source(length=20, extra_edges=False).full_delta())
        for target in (installed, reference):
            target.collect_garbage("m10", keep=set())
        installed.merge_delta(delta)
        per_item_copy(delta, target=reference)
        assert_same_dag(installed, reference)
        assert not any(target.is_forgotten(mid) and mid in target.destinations
                       for target in (installed, reference)
                       for mid in ("m10",))
        assert "m9" not in installed.destinations  # ancestor of the pivot

    def test_gc_pruned_source_ships_only_live_content(self):
        source = build_source(prune=True)
        delta = source.cold_delta()
        installed = History()
        installed.merge_delta(delta)
        assert set(installed.message_ids()) == set(source.message_ids())
        assert set(installed.edges()) == set(source.edges())

    def test_installed_history_serves_full_cold_diff_to_descendants(self):
        # After a wholesale install the journal starts pre-compacted
        # (journal_base > 0): a fresh descendant's watermark falls below the
        # base and must receive the complete live content via the cold path.
        source = build_source()
        installed = History()
        installed.merge_delta(source.cold_delta())
        assert installed.journal_base > 0
        delta = HistoryDiffTracker().diff_for("peer", installed)
        assert set(delta.iter_vertices()) == set(
            source.full_delta().vertices
        )
        assert set(delta.iter_edges()) == set(source.edges())


#: Seeds matching the batching differential suite's generator coverage.
SEEDS = (3, 7, 11)


class TestDeliverySequenceEquivalence:
    """Forcing the snapshot cold path on/off must not change any delivery.

    ``COLD_SYNC_MIN_ENTRIES = 1`` makes every first-contact diff ship a
    packed snapshot; a huge value keeps every such diff on the per-item
    journal-slice form.  Both carry the same logical content at the same
    simulated size, so whole runs must be *bit-identical* — same per-group
    delivery sequences, not just the same sets.
    """

    def _run(self, seed, hybrid, batch_window, monkeypatch, cold_min):
        monkeypatch.setattr(
            "repro.core.history.COLD_SYNC_MIN_ENTRIES", cold_min
        )
        scenario = apply_profile(generate_scenario(seed, "none"), "none")
        scenario = replace(scenario, hybrid=hybrid, batch_window=batch_window)
        return run_scenario(scenario)

    @pytest.mark.parametrize("hybrid", [False, True], ids=["plain", "hybrid"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_sequences_identical(self, seed, hybrid, monkeypatch):
        snap = self._run(seed, hybrid, 1, monkeypatch, cold_min=1)
        item = self._run(seed, hybrid, 1, monkeypatch, cold_min=10**9)
        assert snap.sequences == item.sequences
        assert snap.violations == item.violations
        assert snap.ordering_anomalies == item.ordering_anomalies

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_sequences_identical_batched(self, seed, monkeypatch):
        snap = self._run(seed, False, 16, monkeypatch, cold_min=1)
        item = self._run(seed, False, 16, monkeypatch, cold_min=10**9)
        assert snap.sequences == item.sequences
        assert snap.violations == item.violations
