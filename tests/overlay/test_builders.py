"""Unit tests for the O1/O2/T1/T2/T3 overlay builders."""

import itertools

import pytest

from repro.overlay.base import CompleteGraphOverlay
from repro.overlay.builders import (
    build_complete,
    build_o1,
    build_o2,
    build_t1,
    build_t2,
    build_t3,
    nearest_neighbour_order,
    standard_overlays,
)
from repro.overlay.cdag import CDagOverlay
from repro.overlay.tree import TreeOverlay
from repro.sim.latencies import LatencyMatrix


class TestNearestNeighbourOrder:
    def test_starts_at_seed_and_covers_all_sites(self, latencies):
        order = nearest_neighbour_order(latencies, seed=0)
        assert order[0] == 0
        assert sorted(order) == list(range(12))

    def test_each_step_picks_nearest_remaining(self, latencies):
        order = nearest_neighbour_order(latencies, seed=0)
        for i in range(len(order) - 1):
            current, chosen = order[i], order[i + 1]
            remaining = set(order[i + 1 :])
            best = min(remaining, key=lambda s: (latencies.latency(current, s), s))
            assert chosen == best

    def test_invalid_seed_rejected(self, latencies):
        with pytest.raises(ValueError):
            nearest_neighbour_order(latencies, seed=99)


class TestCDagBuilders:
    def test_o1_seeded_at_central_region(self, latencies):
        o1 = build_o1(latencies)
        assert isinstance(o1, CDagOverlay)
        assert o1.order[0] == latencies.centroid_site()
        # The central site lies between the two continental extremes, never in
        # the periphery (South America or Oceania).
        assert latencies.cluster(o1.order[0]) in {"america", "europe"}

    def test_o2_seeded_at_region_zero(self, latencies):
        o2 = build_o2(latencies)
        assert o2.order[0] == 0

    def test_o1_and_o2_are_different_orders_of_the_same_groups(self, latencies):
        o1, o2 = build_o1(latencies), build_o2(latencies)
        assert sorted(o1.order) == sorted(o2.order) == list(range(12))
        assert o1.order != o2.order

    @pytest.mark.parametrize("seed", range(12))
    def test_o2_from_any_region_is_its_nearest_neighbour_tour(self, latencies, seed):
        o2 = build_o2(latencies, seed=seed)
        assert o2.order == nearest_neighbour_order(latencies, seed=seed)
        assert o2.order[0] == seed and sorted(o2.order) == list(range(12))
        for rank, group in enumerate(o2.order):
            assert o2.rank(group) == rank
            assert o2.ancestors(group) == o2.order[:rank]


class TestTreeBuilders:
    def test_all_trees_cover_all_regions(self, latencies):
        for builder in (build_t1, build_t2, build_t3):
            tree = builder(latencies)
            assert isinstance(tree, TreeOverlay)
            assert sorted(tree.groups) == list(range(12))

    def test_roots_are_european(self, latencies):
        # The paper's trees are rooted in Europe (the cluster bridging America
        # and Asia in its deployment); the builders preserve that choice.
        for builder in (build_t1, build_t2, build_t3):
            assert latencies.cluster(builder(latencies).root) == "europe"

    def test_t1_has_more_inner_nodes_than_t2_than_t3(self, latencies):
        t1, t2, t3 = build_t1(latencies), build_t2(latencies), build_t3(latencies)
        assert len(t1.inner_groups()) > len(t2.inner_groups()) > len(t3.inner_groups())

    def test_t3_is_a_star(self, latencies):
        t3 = build_t3(latencies)
        assert t3.inner_groups() == [t3.root]
        assert len(t3.children(t3.root)) == 11

    def test_t1_and_t2_exact_shapes(self, latencies):
        # London (6) roots both, Ohio (1) heads America and Singapore (9)
        # heads Asia.  T1 chains each continent nearest first; T2 hangs every
        # member off its head.
        t1, t2 = build_t1(latencies), build_t2(latencies)
        assert t1.root == t2.root == 6
        assert {g: t1.children(g) for g in t1.inner_groups()} == {
            6: [5, 7, 1, 9],
            1: [0], 0: [2], 2: [3], 3: [4],
            9: [11], 11: [8], 8: [10],
        }
        assert {g: t2.children(g) for g in t2.inner_groups()} == {
            6: [5, 7, 1, 9], 1: [0, 2, 3, 4], 9: [8, 10, 11],
        }

    def test_a_matrix_without_the_aws_clusters_is_rejected(self):
        custom = LatencyMatrix(matrix=[[0, 5, 9], [5, 0, 7], [9, 7, 0]])
        for builder in (build_t1, build_t2, build_t3):
            with pytest.raises(ValueError, match="cluster"):
                builder(custom)

    def test_t1_continental_subtrees(self, latencies):
        t1 = build_t1(latencies)
        root_children = t1.children(t1.root)
        # The root's children include the America and Asia subtree roots.
        clusters = {latencies.cluster(c) for c in root_children}
        assert {"america", "asia"} <= clusters


class TestStandardOverlays:
    def test_contains_all_paper_overlays(self, overlays):
        assert set(overlays) == {"O1", "O2", "T1", "T2", "T3", "complete"}

    def test_complete_overlay_type(self, overlays):
        assert isinstance(overlays["complete"], CompleteGraphOverlay)

    def test_complete_overlay_connectivity(self, latencies):
        complete = build_complete(latencies)
        assert complete.can_send(0, 11) and complete.can_send(11, 0)
        assert not complete.can_send(3, 3)

    def test_default_matrix_used_when_none_given(self):
        assert set(standard_overlays()) == {"O1", "O2", "T1", "T2", "T3", "complete"}


def downstream(overlay, entry):
    """Groups a message entering at ``entry`` can reach: along edges for a
    C-DAG or the complete graph, from parent to child for a tree."""
    def edge(a, b):
        if isinstance(overlay, TreeOverlay):
            return overlay.parent(b) == a
        return overlay.can_send(a, b)

    reached, frontier = {entry}, [entry]
    while frontier:
        a = frontier.pop()
        for b in overlay.groups:
            if b not in reached and edge(a, b):
                reached.add(b)
                frontier.append(b)
    return reached


class TestEntryGroupReachesEveryDestination:
    """For every destination set of up to three groups the entry group can
    hand the message on to each destination; on a genuine overlay the entry
    group is itself a destination.  A message enters a C-DAG or a tree at the
    lca, and the complete graph at every destination."""

    @pytest.mark.parametrize("name", ["O1", "O2", "T1", "T2", "T3", "complete"])
    def test_every_small_destination_set(self, overlays, name):
        overlay = overlays[name]
        genuine = not isinstance(overlay, TreeOverlay)
        for size in (1, 2, 3):
            for dst in itertools.combinations(range(12), size):
                if isinstance(overlay, CompleteGraphOverlay):
                    entries = list(dst)
                else:
                    entries = [overlay.lca(dst)]
                for entry in entries:
                    assert set(dst) <= downstream(overlay, entry), (name, dst, entry)
                    if genuine:
                        assert entry in dst
                if isinstance(overlay, CDagOverlay):
                    assert entries == [min(dst, key=overlay.rank)]
