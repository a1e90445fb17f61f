"""Complete directed acyclic graph (C-DAG) overlay — FlexCast's topology.

Paper §4.1: groups are totally ordered by a *rank* in ``0..n-1``; there is a
directed edge from every group with rank ``i`` to every group with rank ``j``
whenever ``i < j``.  A group's *ancestors* are all lower-ranked groups and its
*descendants* all higher-ranked groups.  The lowest common ancestor (lca) of a
multicast message is simply the destination group with the lowest rank; the
client sends the message there and the lca forwards it to all remaining
destinations in a single communication step.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence

from .base import GroupId, Overlay, OverlayError


class CDagOverlay(Overlay):
    """Complete-DAG overlay over an ordered sequence of groups.

    Parameters
    ----------
    order:
        Groups listed from lowest rank (rank 0, the "first" group every other
        group is a descendant of) to highest rank.  The paper's O1 and O2
        overlays are two different orders over the same 12 groups
        (see :mod:`repro.overlay.builders`).
    """

    def __init__(self, order: Sequence[GroupId]) -> None:
        super().__init__(order)
        self._rank: Dict[GroupId, int] = {g: r for r, g in enumerate(self._groups)}
        self._lca: Dict[FrozenSet[GroupId], GroupId] = {}

    # ----------------------------------------------------------------- ranks
    def rank(self, group: GroupId) -> int:
        """Rank of ``group`` (0 is the lowest / first group)."""
        try:
            return self._rank[group]
        except KeyError:
            raise OverlayError(f"group {group} not in overlay") from None

    @property
    def order(self) -> List[GroupId]:
        """Groups from lowest to highest rank."""
        return list(self._groups)

    # ----------------------------------------------------------- relationships
    def ancestors(self, group: GroupId) -> List[GroupId]:
        """All groups with lower rank than ``group`` (rank order)."""
        r = self.rank(group)
        return self._groups[:r]

    def can_send(self, src: GroupId, dst: GroupId) -> bool:
        """Edges go from lower to higher rank only."""
        return self.rank(src) < self.rank(dst)

    # ------------------------------------------------------------------- lca
    def lca(self, destinations: Iterable[GroupId]) -> GroupId:
        """Lowest common ancestor: the lowest-ranked destination group.

        The protocol asks this many times per message, so the answer comes
        from a table keyed by destination set, filled on the first ask.
        """
        dst = frozenset(destinations)
        try:
            return self._lca[dst]
        except KeyError:
            lca = self._lca[dst] = min(self.validate_destinations(dst), key=self.rank)
            return lca

    def describe(self) -> str:
        return "C-DAG " + " -> ".join(str(g) for g in self._groups)
