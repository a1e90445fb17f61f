"""Construction of the paper's overlays (O1, O2, T1, T2, T3) from a latency matrix.

Paper §5.4 describes how the evaluated overlays are built:

* **O1 / O2** (FlexCast C-DAGs): pick a starting node — the *central* node for
  O1 and the *left-most* node for O2 — then repeatedly append the node closest
  to the most recently chosen one (a nearest-neighbour chain).  The resulting
  order is the C-DAG rank order.

* **T1 / T2 / T3** (hierarchical trees): trees with different numbers of inner
  nodes.  T1 and T2 mirror the geography — a European root with regional
  subtrees for America and Asia whose roots act as continental lowest common
  ancestors (these are the groups the paper reports as carrying the most
  overhead).  T3 trades latency for a concentrated root: nearly a star, so a
  single group absorbs most of the non-genuine overhead (56% in the paper).

Exact node identities in Figure 4 are not published; these builders follow the
written construction rules, which is what the reproduced trends depend on.
The trees are laid out by continent, so they need the AWS matrix's cluster
metadata; any other matrix makes them raise ``ValueError``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..sim.latencies import LatencyMatrix
from .base import CompleteGraphOverlay, GroupId
from .cdag import CDagOverlay
from .tree import TreeOverlay


def nearest_neighbour_order(latencies: LatencyMatrix, seed: GroupId) -> List[GroupId]:
    """Order sites as a nearest-neighbour chain starting from ``seed``.

    At every step the not-yet-chosen site closest to the previously chosen one
    is appended (ties broken by site id for determinism).
    """
    remaining = set(range(latencies.num_sites))
    if seed not in remaining:
        raise ValueError(f"seed site {seed} out of range")
    order = [seed]
    remaining.remove(seed)
    while remaining:
        last = order[-1]
        nxt = min(remaining, key=lambda s: (latencies.latency(last, s), s))
        order.append(nxt)
        remaining.remove(nxt)
    return order


def build_o1(latencies: LatencyMatrix) -> CDagOverlay:
    """Overlay O1: nearest-neighbour C-DAG seeded at the central node.

    The central node is taken to be the site with the minimum total latency
    to all other sites.  On the AWS matrix that is site 1, ``us-east-2``, not
    a European region (5 of the 12 sites are American), so O1 is
    ``[1, 0, 2, 3, 8, 9, 11, 7, 6, 5, 4, 10]``.  Seeding O1 as the paper
    describes it is an open item in ROADMAP.md ("Build O1 as the paper
    describes it").
    """
    return CDagOverlay(nearest_neighbour_order(latencies, latencies.centroid_site()))


def build_o2(latencies: LatencyMatrix, seed: GroupId = 0) -> CDagOverlay:
    """Overlay O2: nearest-neighbour C-DAG seeded at the left-most node.

    The paper seeds O2 at node 1 (the left-most region on its map); with the
    default matrix that is ``us-east-1`` (site 0).
    """
    return CDagOverlay(nearest_neighbour_order(latencies, seed))


# --------------------------------------------------------------------------- trees
def _clusters(latencies: LatencyMatrix) -> Dict[str, List[GroupId]]:
    """Group sites by geographic cluster (the AWS region metadata).

    Raises ``ValueError`` for a matrix without the america, europe and asia
    clusters: the trees are laid out by continent.
    """
    clusters: Dict[str, List[GroupId]] = {}
    for site in range(latencies.num_sites):
        clusters.setdefault(latencies.cluster(site), []).append(site)
    missing = [name for name in ("america", "europe", "asia") if name not in clusters]
    if missing:
        raise ValueError(f"the tree overlays need the {', '.join(missing)} cluster(s)")
    return clusters


def _cluster_root(latencies: LatencyMatrix, members: Sequence[GroupId]) -> GroupId:
    """Member with the minimum total latency to the rest of its cluster."""
    return min(
        members,
        key=lambda s: (sum(latencies.latency(s, d) for d in members), s),
    )


def _chain_children(order: Sequence[GroupId]) -> Dict[GroupId, List[GroupId]]:
    """Turn an ordered list into a path (each node parents the next)."""
    children: Dict[GroupId, List[GroupId]] = {}
    for parent, child in zip(order, order[1:]):
        children.setdefault(parent, []).append(child)
    return children


def _continental_tree(latencies: LatencyMatrix, chain: bool) -> TreeOverlay:
    """The skeleton T1 and T2 share: a European root over Europe and over
    one subtree each for America and Asia.

    The root and each subtree's head are the member closest to the rest of
    their cluster.  With ``chain`` a subtree is a path from its head, nearest
    member first (T1); without, every member is a child of the head (T2).
    """
    clusters = _clusters(latencies)
    europe = clusters["europe"]
    root = _cluster_root(latencies, europe)
    children: Dict[GroupId, List[GroupId]] = {root: [e for e in europe if e != root]}
    for continent in ("america", "asia"):
        members = clusters[continent]
        head = _cluster_root(latencies, members)
        children[root].append(head)
        rest = [m for m in members if m != head]
        if chain:
            rest.sort(key=lambda s: (latencies.latency(head, s), s))
            children.update(_chain_children([head] + rest))
        else:
            children[head] = rest
    return TreeOverlay(root, children)


def build_t1(latencies: LatencyMatrix) -> TreeOverlay:
    """Tree T1: geographic tree with *many* inner nodes.

    Root: the central European region.  The remaining European regions hang
    off the root.  America and Asia each form a regional subtree whose root is
    the member closest to the rest of its cluster; inside each subtree the
    members form a nearest-neighbour chain, so most regional groups are inner
    nodes.  The continental subtree roots are the analogue of the paper's
    groups 5 and 9, which absorb the largest overhead in T1.
    """
    return _continental_tree(latencies, chain=True)


def build_t2(latencies: LatencyMatrix) -> TreeOverlay:
    """Tree T2: geographic tree with *fewer* inner nodes than T1.

    Same continental structure as T1, but inside each continental subtree all
    members are direct children of the subtree root (two-level subtrees), so
    only the root and the two continental roots are inner nodes besides the
    European root.
    """
    return _continental_tree(latencies, chain=False)


def build_t3(latencies: LatencyMatrix) -> TreeOverlay:
    """Tree T3: a star — a single inner node (the root) absorbs all overhead.

    The root is the European region closest to the rest of Europe (the paper's
    T3 root is a European group that endures 56% overhead while every other
    group has none).
    """
    root = _cluster_root(latencies, _clusters(latencies)["europe"])
    leaves = sorted(s for s in range(latencies.num_sites) if s != root)
    return TreeOverlay(root, {root: leaves})


# ----------------------------------------------------------------- conveniences
def build_complete(latencies: LatencyMatrix) -> CompleteGraphOverlay:
    """Fully connected overlay for the distributed (Skeen) baseline."""
    return CompleteGraphOverlay(list(range(latencies.num_sites)))


def standard_overlays(latencies: Optional[LatencyMatrix] = None) -> Dict[str, object]:
    """All overlays evaluated in the paper, keyed by their paper names."""
    from ..sim.latencies import aws_latency_matrix

    if latencies is None:
        latencies = aws_latency_matrix()
    return {
        "O1": build_o1(latencies),
        "O2": build_o2(latencies),
        "T1": build_t1(latencies),
        "T2": build_t2(latencies),
        "T3": build_t3(latencies),
        "complete": build_complete(latencies),
    }
