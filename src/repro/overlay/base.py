"""Overlay abstractions.

An *overlay* restricts which groups may exchange messages (paper §1, §3).
FlexCast assumes a complete DAG (C-DAG) overlay; the hierarchical baseline
assumes a tree; Skeen's distributed protocol assumes the complete graph.
All three are expressed through the :class:`Overlay` interface so the
experiment harness can treat them uniformly.

Groups are identified by integer ids (the paper's groups 1..12 map to ids
0..11, which are also site indices into the latency matrix unless a custom
placement is supplied).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import FrozenSet, Iterable, List, Sequence

GroupId = int


class OverlayError(ValueError):
    """Raised for malformed overlays or illegal queries."""


class Overlay(ABC):
    """Base class for group communication overlays."""

    def __init__(self, groups: Sequence[GroupId]) -> None:
        groups = list(groups)
        if len(groups) != len(set(groups)):
            raise OverlayError("duplicate group ids in overlay")
        if not groups:
            raise OverlayError("overlay must contain at least one group")
        self._groups: List[GroupId] = groups
        #: The same groups as a set, built once: every message is checked
        #: against it.
        self._group_set: FrozenSet[GroupId] = frozenset(groups)

    # ------------------------------------------------------------ properties
    @property
    def groups(self) -> List[GroupId]:
        """All group ids in the overlay."""
        return list(self._groups)

    @property
    def num_groups(self) -> int:
        return len(self._groups)

    def __contains__(self, group: GroupId) -> bool:
        return group in self._group_set

    # ------------------------------------------------------------- interface
    @abstractmethod
    def can_send(self, src: GroupId, dst: GroupId) -> bool:
        """True iff the overlay has a directed edge ``src -> dst``."""

    def validate_destinations(self, destinations: Iterable[GroupId]) -> FrozenSet[GroupId]:
        """Normalize and validate a destination set."""
        dst = frozenset(destinations)
        if not dst:
            raise OverlayError("destination set must not be empty")
        if not dst <= self._group_set:
            unknown = dst - self._group_set
            raise OverlayError(f"unknown destination groups: {sorted(unknown)}")
        return dst

    def describe(self) -> str:
        """Human-readable one-line description (used in reports)."""
        return f"{type(self).__name__}({self.num_groups} groups)"


class CompleteGraphOverlay(Overlay):
    """Fully connected overlay used by distributed protocols (Skeen).

    Every group can send to every other group; there is no notion of rank and
    the entry point of a message is the set of destinations themselves (the
    client sends directly to each destination).
    """

    def can_send(self, src: GroupId, dst: GroupId) -> bool:
        return src in self and dst in self and src != dst

    def describe(self) -> str:
        return f"complete graph ({self.num_groups} groups)"
