"""Unit tests for the complete-DAG overlay."""

import itertools

import pytest

from repro.overlay.base import OverlayError
from repro.overlay.cdag import CDagOverlay


@pytest.fixture
def dag():
    # Paper Figure 2(c): A, B, D, E, C from lowest to highest rank.
    return CDagOverlay(["A", "B", "D", "E", "C"])


class TestRanks:
    def test_rank_order(self, dag):
        assert dag.rank("A") == 0
        assert dag.rank("C") == 4
        assert dag.order == ["A", "B", "D", "E", "C"]

    def test_group_at_rank(self, dag):
        assert dag.group_at_rank(0) == "A"
        assert dag.group_at_rank(4) == "C"
        with pytest.raises(OverlayError):
            dag.group_at_rank(5)

    def test_unknown_group_raises(self, dag):
        with pytest.raises(OverlayError):
            dag.rank("Z")

    def test_duplicate_groups_rejected(self):
        with pytest.raises(OverlayError):
            CDagOverlay(["A", "A", "B"])

    def test_empty_overlay_rejected(self):
        with pytest.raises(OverlayError):
            CDagOverlay([])


class TestRelationships:
    def test_ancestors_and_descendants(self, dag):
        assert dag.ancestors("D") == ["A", "B"]
        assert dag.descendants("D") == ["E", "C"]
        assert dag.ancestors("A") == []
        assert dag.descendants("C") == []

    def test_is_ancestor_descendant(self, dag):
        assert dag.is_ancestor("A", "C")
        assert not dag.is_ancestor("C", "A")
        assert dag.is_descendant("C", "A")
        assert not dag.is_ancestor("A", "A")

    def test_edges_go_from_lower_to_higher_rank_only(self, dag):
        assert dag.can_send("A", "C")
        assert dag.can_send("B", "E")
        assert not dag.can_send("C", "A")
        assert not dag.can_send("A", "A")

    def test_complete_connectivity(self, dag):
        # Every lower group can reach every higher group directly: C-DAG.
        for i, low in enumerate(dag.order):
            for high in dag.order[i + 1 :]:
                assert dag.can_send(low, high)


class TestLca:
    def test_lca_is_lowest_ranked_destination(self, dag):
        assert dag.lca({"E", "C"}) == "E"
        assert dag.lca({"B", "C", "D"}) == "B"
        assert dag.lca({"C"}) == "C"

    def test_entry_group_matches_lca(self, dag):
        assert dag.entry_group({"D", "C"}) == dag.lca({"D", "C"})

    def test_lca_rejects_unknown_or_empty_destinations(self, dag):
        with pytest.raises(OverlayError):
            dag.lca({"A", "Z"})
        with pytest.raises(OverlayError):
            dag.lca(set())
        # A rejected set is not remembered: asking again raises again.
        with pytest.raises(OverlayError):
            dag.lca(["Z", "A"])
        with pytest.raises(OverlayError):
            dag.lca(())

    def test_lca_table_agrees_with_the_direct_computation(self):
        # Every non-empty subset of four groups under all 24 rank orders,
        # asked twice (the second answer comes from the table) and in every
        # iterable shape a caller passes.
        groups = (0, 1, 2, 3)
        subsets = [
            frozenset(c)
            for size in range(1, 5)
            for c in itertools.combinations(groups, size)
        ]
        for order in itertools.permutations(groups):
            dag = CDagOverlay(order)
            for dst in subsets:
                expected = min(dst, key=order.index)
                assert dag.lca(dst) == expected
                assert dag.lca(sorted(dst, reverse=True)) == expected
                assert dag.lca(set(dst)) == expected
                assert dag.entry_group(tuple(dst)) == expected

    def test_sorted_by_rank(self, dag):
        assert dag.sorted_by_rank({"C", "A", "E"}) == ["A", "E", "C"]

    def test_describe_mentions_order(self, dag):
        assert "A -> B -> D -> E -> C" in dag.describe()

    def test_contains(self, dag):
        assert "A" in dag
        assert "Z" not in dag
