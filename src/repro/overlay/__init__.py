"""Group communication overlays: C-DAG (FlexCast), tree, complete graph.

What lives here: the topologies protocols are deployed on.  The main entry
point is :class:`CDagOverlay` (the complete DAG FlexCast ranks groups on),
alongside :class:`TreeOverlay` (hierarchical baseline),
:class:`CompleteGraphOverlay` (Skeen baseline) and the builders from the
paper's evaluation — :func:`build_o1` / :func:`build_o2` (latency-driven
C-DAG orders, both nearest-neighbour chains from
:func:`~repro.overlay.builders.nearest_neighbour_order`) and
:func:`build_t1`–:func:`build_t3` (trees).
"""

from .base import CompleteGraphOverlay, GroupId, Overlay, OverlayError
from .builders import (
    build_complete,
    build_o1,
    build_o2,
    build_t1,
    build_t2,
    build_t3,
    nearest_neighbour_order,
    standard_overlays,
)
from .cdag import CDagOverlay
from .tree import TreeOverlay

__all__ = [
    "CompleteGraphOverlay",
    "GroupId",
    "Overlay",
    "OverlayError",
    "CDagOverlay",
    "TreeOverlay",
    "build_complete",
    "build_o1",
    "build_o2",
    "build_t1",
    "build_t2",
    "build_t3",
    "nearest_neighbour_order",
    "standard_overlays",
]
