"""Tree overlay used by the hierarchical (ByzCast-style) baseline.

Paper §3: hierarchical protocols structure communication between groups as a
tree.  A multicast message is first sent to the lowest common ancestor of its
destinations in the tree (in the worst case the root), is ordered there, and
then travels down the tree — being ordered at every group on the way — until
it reaches all destinations.  Groups that lie on those paths but are not
destinations still receive (and order) the message, which is exactly the
communication overhead quantified in Figures 1 and 9 of the paper.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set

from .base import GroupId, Overlay, OverlayError


class TreeOverlay(Overlay):
    """Rooted tree over groups.

    Parameters
    ----------
    root:
        The root group id.
    children:
        Mapping from a group to the ordered list of its children.  Groups not
        present as keys are leaves.
    """

    def __init__(self, root: GroupId, children: Dict[GroupId, Sequence[GroupId]]) -> None:
        self._root = root
        self._children: Dict[GroupId, List[GroupId]] = {
            g: list(kids) for g, kids in children.items()
        }
        groups = self._collect_groups()
        super().__init__(groups)
        self._parent: Dict[GroupId, Optional[GroupId]] = {root: None}
        for parent, kids in self._children.items():
            for kid in kids:
                if kid in self._parent:
                    raise OverlayError(f"group {kid} has two parents")
                self._parent[kid] = parent
        if set(self._parent) != set(groups):
            raise OverlayError("children mapping is not a connected tree")
        self._depth: Dict[GroupId, int] = {}
        self._compute_depths()

    def _collect_groups(self) -> List[GroupId]:
        seen: List[GroupId] = []
        visited: Set[GroupId] = set()
        stack = [self._root]
        while stack:
            g = stack.pop()
            if g in visited:
                raise OverlayError("cycle detected in tree overlay")
            visited.add(g)
            seen.append(g)
            stack.extend(reversed(self._children.get(g, [])))
        return seen

    def _compute_depths(self) -> None:
        for g in self._groups:
            depth = 0
            cur: Optional[GroupId] = g
            while self._parent[cur] is not None:
                cur = self._parent[cur]
                depth += 1
            self._depth[g] = depth

    # ------------------------------------------------------------ structure
    @property
    def root(self) -> GroupId:
        return self._root

    def parent(self, group: GroupId) -> Optional[GroupId]:
        """Parent of ``group`` (None for the root)."""
        try:
            return self._parent[group]
        except KeyError:
            raise OverlayError(f"group {group} not in tree") from None

    def children(self, group: GroupId) -> List[GroupId]:
        return list(self._children.get(group, []))

    def depth(self, group: GroupId) -> int:
        """Distance from the root (root has depth 0)."""
        return self._depth[group]

    def is_leaf(self, group: GroupId) -> bool:
        return not self._children.get(group)

    def inner_groups(self) -> List[GroupId]:
        """Groups with at least one child (the ones exposed to overhead)."""
        return [g for g in self._groups if not self.is_leaf(g)]

    def path_to_root(self, group: GroupId) -> List[GroupId]:
        """Path from ``group`` up to and including the root."""
        path = [group]
        cur = group
        while self._parent[cur] is not None:
            cur = self._parent[cur]
            path.append(cur)
        return path

    # --------------------------------------------------------------- routing
    def can_send(self, src: GroupId, dst: GroupId) -> bool:
        """Tree edges are bidirectional parent<->child links."""
        return self._parent.get(dst) == src or self._parent.get(src) == dst

    def lca(self, destinations: Iterable[GroupId]) -> GroupId:
        """Lowest common ancestor of a destination set in the tree."""
        dst = self.validate_destinations(destinations)
        paths = [list(reversed(self.path_to_root(d))) for d in dst]  # root..d
        lca = self._root
        for level in range(min(len(p) for p in paths)):
            candidates = {p[level] for p in paths}
            if len(candidates) == 1:
                lca = candidates.pop()
            else:
                break
        return lca

    def next_hops(self, at: GroupId, destinations: Iterable[GroupId]) -> List[GroupId]:
        """Children of ``at`` whose subtree contains at least one destination.

        This defines how the hierarchical protocol propagates a message down
        the tree from the lca toward the destinations.
        """
        dst = self.validate_destinations(destinations)
        hops = []
        for child in self.children(at):
            if self._subtree_contains(child, dst):
                hops.append(child)
        return hops

    def groups_involved(self, destinations: Iterable[GroupId]) -> Set[GroupId]:
        """All groups that receive a message addressed to ``destinations``.

        Includes the destinations plus every non-destination group on the
        dissemination paths — the source of non-genuine overhead.
        """
        dst = self.validate_destinations(destinations)
        involved: Set[GroupId] = set()
        stack = [self.lca(dst)]
        while stack:
            g = stack.pop()
            involved.add(g)
            stack.extend(self.next_hops(g, dst))
        return involved

    def _subtree_contains(self, root: GroupId, targets: FrozenSet[GroupId]) -> bool:
        stack = [root]
        while stack:
            g = stack.pop()
            if g in targets:
                return True
            stack.extend(self._children.get(g, []))
        return False

    def describe(self) -> str:
        edges = ", ".join(
            f"{p}->{c}" for p in self._groups for c in self._children.get(p, [])
        )
        return f"tree rooted at {self._root}: {edges}"
