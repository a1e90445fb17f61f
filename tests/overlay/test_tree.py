"""Unit tests for the tree overlay."""

import pytest

from repro.overlay.base import OverlayError
from repro.overlay.tree import TreeOverlay


@pytest.fixture
def tree():
    # Paper Figure 2(b): A at the root, children B and C; B has children D, E.
    return TreeOverlay("A", {"A": ["B", "C"], "B": ["D", "E"]})


class TestStructure:
    def test_groups_and_root(self, tree):
        assert set(tree.groups) == {"A", "B", "C", "D", "E"}
        assert tree.root == "A"

    def test_parent_and_children(self, tree):
        assert tree.parent("A") is None
        assert tree.parent("D") == "B"
        assert tree.children("A") == ["B", "C"]
        assert tree.children("D") == []

    def test_depth(self, tree):
        assert tree.depth("A") == 0
        assert tree.depth("B") == 1
        assert tree.depth("E") == 2

    def test_leaves_and_inner_groups(self, tree):
        assert tree.is_leaf("C") and tree.is_leaf("D")
        assert not tree.is_leaf("B")
        assert set(tree.inner_groups()) == {"A", "B"}

    def test_path_to_root(self, tree):
        assert tree.path_to_root("E") == ["E", "B", "A"]
        assert tree.path_to_root("A") == ["A"]

    def test_two_parents_rejected(self):
        with pytest.raises(OverlayError):
            TreeOverlay("A", {"A": ["B", "C"], "C": ["B"]})

    def test_unknown_group_query_raises(self, tree):
        with pytest.raises(OverlayError):
            tree.parent("Z")


class TestRouting:
    def test_edges_are_parent_child_links(self, tree):
        assert tree.can_send("A", "B")
        assert tree.can_send("B", "A")
        assert not tree.can_send("D", "E")
        assert not tree.can_send("A", "E")

    def test_lca_of_siblings_is_parent(self, tree):
        assert tree.lca({"B", "C"}) == "A"
        assert tree.lca({"D", "E"}) == "B"

    def test_lca_of_nested_destinations(self, tree):
        assert tree.lca({"B", "D"}) == "B"
        assert tree.lca({"C", "E"}) == "A"
        assert tree.lca({"D"}) == "D"

    def test_lca_is_the_entry_group_even_if_not_destination(self, tree):
        # Key non-genuineness example from the paper: a message to {B, C}
        # enters at A, which is not a destination.
        assert tree.lca({"B", "C"}) == "A"

    def test_next_hops_only_toward_destinations(self, tree):
        assert tree.next_hops("A", {"D", "C"}) == ["B", "C"]
        assert tree.next_hops("B", {"D", "C"}) == ["D"]
        assert tree.next_hops("C", {"D", "C"}) == []

    def test_groups_involved_includes_relays(self, tree):
        # {D, E} involves B (their lca) only, plus the destinations.
        assert tree.groups_involved({"D", "E"}) == {"B", "D", "E"}
        # {B, C} involves the root A as a relay.
        assert tree.groups_involved({"B", "C"}) == {"A", "B", "C"}

    def test_groups_involved_single_destination(self, tree):
        assert tree.groups_involved({"E"}) == {"E"}

    def test_validate_rejects_unknown_destination(self, tree):
        with pytest.raises(OverlayError):
            tree.lca({"A", "Z"})
