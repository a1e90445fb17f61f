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

    def test_rank_is_each_groups_position_in_order(self, dag):
        assert sorted(map(dag.rank, dag.groups)) == list(range(len(dag.groups)))
        for group in dag.groups:
            assert dag.order[dag.rank(group)] == group

    def test_order_is_a_copy(self, dag):
        # A route slices ``order``; a caller's edit must not reorder the overlay.
        dag.order.reverse()
        assert dag.order == ["A", "B", "D", "E", "C"]
        assert dag.rank("A") == 0

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
    def test_ancestors(self, dag):
        assert dag.ancestors("D") == ["A", "B"]
        assert dag.ancestors("A") == []

    def test_ancestors_are_exactly_the_groups_that_can_send_here(self, dag):
        # A group tells a notifier ranked above it from one below by this set.
        for group in dag.groups:
            assert set(dag.ancestors(group)) == {
                other for other in dag.groups if dag.can_send(other, group)
            }
        with pytest.raises(OverlayError):
            dag.ancestors("Z")

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

    def test_lca_is_the_same_for_any_iterable(self, dag):
        assert dag.lca({"D", "C"}) == dag.lca(("C", "D")) == dag.lca(["D", "C"])

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
                assert dag.lca(tuple(dst)) == expected

    def test_describe_mentions_order(self, dag):
        assert "A -> B -> D -> E -> C" in dag.describe()

    def test_contains(self, dag):
        assert "A" in dag
        assert "Z" not in dag
