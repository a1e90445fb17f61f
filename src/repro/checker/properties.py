"""Trace checker for the atomic multicast properties (paper §2.2).

Given the per-group delivery sequences produced by a run (a
:class:`~repro.protocols.base.RecordingSink`) and the set of messages that
were multicast, the checker validates:

* **Integrity** — every message is delivered at most once per group, only at
  its destinations, and only if it was multicast;
* **Validity / Agreement** (for completed runs) — every multicast message is
  delivered by all of its destinations;
* **Prefix order** — two groups that both deliver two common messages deliver
  them in the same relative order;
* **Acyclic order** — the union of all per-group delivery orders (the ``≺``
  relation) has no cycle;
* **Minimality** (genuineness) — checked from network traffic separately, via
  :func:`check_genuineness`.

The checker is used by integration tests, by hypothesis-driven property tests
and can be enabled on any experiment via ``record_deliveries=True``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core.message import Message
from ..overlay.base import GroupId
from ..protocols.base import RecordingSink


@dataclass
class Violation:
    """One property violation found in a trace."""

    property_name: str
    description: str

    def __str__(self) -> str:
        return f"[{self.property_name}] {self.description}"


@dataclass
class CheckReport:
    """Outcome of checking one trace."""

    violations: List[Violation] = field(default_factory=list)
    checked_messages: int = 0
    checked_groups: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, property_name: str, description: str) -> None:
        self.violations.append(Violation(property_name, description))

    def raise_if_failed(self) -> None:
        if not self.ok:
            details = "\n".join(str(v) for v in self.violations[:20])
            raise AssertionError(
                f"{len(self.violations)} atomic multicast violations:\n{details}"
            )


def check_trace(
    sink: RecordingSink,
    multicast_messages: Iterable[Message],
    expect_all_delivered: bool = True,
) -> CheckReport:
    """Check every atomic multicast safety property on a delivery trace."""
    report = CheckReport()
    messages: Dict[str, Message] = {m.msg_id: m for m in multicast_messages}
    sequences: Dict[GroupId, List[str]] = {
        g: sink.sequence(g) for g in sink.per_group
    }
    report.checked_messages = len(messages)
    report.checked_groups = len(sequences)

    _check_integrity(report, messages, sequences)
    if expect_all_delivered:
        _check_validity_agreement(report, messages, sequences)
    _check_prefix_order(report, messages, sequences)
    _check_acyclic_order(report, sequences)
    return report


# --------------------------------------------------------------------- helpers
def _check_integrity(
    report: CheckReport,
    messages: Mapping[str, Message],
    sequences: Mapping[GroupId, Sequence[str]],
) -> None:
    for group, sequence in sequences.items():
        seen: Set[str] = set()
        for msg_id in sequence:
            if msg_id in seen:
                report.add("integrity", f"group {group} delivered {msg_id} twice")
            seen.add(msg_id)
            message = messages.get(msg_id)
            if message is None:
                report.add(
                    "integrity",
                    f"group {group} delivered {msg_id}, which was never multicast",
                )
            elif group not in message.dst:
                report.add(
                    "integrity",
                    f"group {group} delivered {msg_id} addressed to {sorted(message.dst)}",
                )


def _check_validity_agreement(
    report: CheckReport,
    messages: Mapping[str, Message],
    sequences: Mapping[GroupId, Sequence[str]],
) -> None:
    delivered_at: Dict[str, Set[GroupId]] = defaultdict(set)
    for group, sequence in sequences.items():
        for msg_id in sequence:
            delivered_at[msg_id].add(group)
    for msg_id, message in messages.items():
        missing = set(message.dst) - delivered_at.get(msg_id, set())
        if missing:
            report.add(
                "validity/agreement",
                f"{msg_id} (dst={sorted(message.dst)}) never delivered at {sorted(missing)}",
            )


def _check_prefix_order(
    report: CheckReport,
    messages: Mapping[str, Message],
    sequences: Mapping[GroupId, Sequence[str]],
) -> None:
    # Position of every message in every group's delivery order.
    position: Dict[GroupId, Dict[str, int]] = {
        g: {m: i for i, m in enumerate(seq)} for g, seq in sequences.items()
    }
    groups = list(sequences)
    for i, g in enumerate(groups):
        for h in groups[i + 1 :]:
            common = set(position[g]) & set(position[h])
            # Prefix order only constrains messages addressed to both groups.
            common = {
                m
                for m in common
                if m in messages and {g, h} <= set(messages[m].dst)
            }
            ordered = sorted(common, key=lambda m: position[g][m])
            at_h = [position[h][m] for m in ordered]
            if all(x < y for x, y in zip(at_h, at_h[1:])):
                continue  # h delivers them in g's order: no pair disagrees
            for a_idx in range(len(ordered)):
                for b_idx in range(a_idx + 1, len(ordered)):
                    a, b = ordered[a_idx], ordered[b_idx]
                    if position[h][a] > position[h][b]:
                        report.add(
                            "prefix-order",
                            f"groups {g} and {h} disagree on {a} vs {b}",
                        )


def find_delivery_cycle(
    successors: Mapping[str, Set[str]], nodes: Iterable[str]
) -> Optional[List[str]]:
    """One concrete cycle in the delivery relation, or ``None`` if acyclic.

    Returns the cycle as a closed path ``[a, b, …, a]`` — the first one a
    depth-first walk meets when start nodes are taken in the order given and
    successors in sorted order, so the witness is a function of the relation
    alone.  The acyclic-order check reports it so a violation names an
    actual witness — ``acyclic-order`` is a hard CI failure, and "a cycle
    exists" alone is not an actionable report.
    """
    colors: Dict[str, int] = {}
    stack: List[str] = []
    on_stack: Dict[str, int] = {}

    def edges_of(node: str) -> Iterator[str]:
        # Sorted, like the start nodes: a set iterates in string-hash order,
        # and the witness a report names must not change with PYTHONHASHSEED.
        return iter(sorted(successors.get(node, ())))

    def visit(start: str) -> Optional[List[str]]:
        # Iterative DFS with an explicit path so deep chains cannot blow the
        # recursion limit (delivery relations reach thousands of messages).
        work: List[Tuple[str, Iterator[str]]] = [(start, edges_of(start))]
        colors[start] = 1
        on_stack[start] = len(stack)
        stack.append(start)
        while work:
            node, edges = work[-1]
            advanced = False
            for succ in edges:
                state = colors.get(succ, 0)
                if state == 1:
                    cycle = stack[on_stack[succ]:] + [succ]
                    return cycle
                if state == 0:
                    colors[succ] = 1
                    on_stack[succ] = len(stack)
                    stack.append(succ)
                    work.append((succ, edges_of(succ)))
                    advanced = True
                    break
            if not advanced:
                work.pop()
                colors[node] = 2
                stack.pop()
                on_stack.pop(node, None)
        return None

    for node in nodes:
        if colors.get(node, 0) == 0:
            found = visit(node)
            if found is not None:
                return found
    return None


def delivery_relation(
    sequences: Mapping[GroupId, Sequence[str]]
) -> Tuple[Dict[str, Set[str]], Set[str]]:
    """The union ``≺`` relation: edge a -> b when some group delivers ``a``
    immediately before ``b`` (per-sequence paths make it transitive)."""
    successors: Dict[str, Set[str]] = defaultdict(set)
    nodes: Set[str] = set()
    for sequence in sequences.values():
        nodes.update(sequence)
        for earlier_idx in range(len(sequence) - 1):
            successors[sequence[earlier_idx]].add(sequence[earlier_idx + 1])
    return successors, nodes


def format_cycle(cycle: Sequence[str]) -> str:
    """Render a closed cycle path compactly (long cycles capped at 12 nodes)."""
    shown = list(cycle) if len(cycle) <= 12 else list(cycle[:11]) + ["…", cycle[-1]]
    return " < ".join(shown)


def _check_acyclic_order(
    report: CheckReport, sequences: Mapping[GroupId, Sequence[str]]
) -> None:
    successors, nodes = delivery_relation(sequences)
    cycle = find_delivery_cycle(successors, sorted(nodes))
    if cycle is not None:
        report.add(
            "acyclic-order",
            f"the delivery relation contains a cycle of {len(cycle) - 1} "
            f"messages: {format_cycle(cycle)}",
        )


# ----------------------------------------------------------------- genuineness
def check_genuineness(
    payload_received_by_group: Mapping[GroupId, int],
    delivered_by_group: Mapping[GroupId, int],
    groups: Iterable[GroupId],
) -> CheckReport:
    """Minimality check for genuine protocols.

    A genuine protocol's groups never receive payload messages they do not
    deliver, so received == delivered for every group.  (Auxiliary messages to
    previously-contacted groups — FlexCast's notifs — are permitted by the
    definition and are not payload messages.)
    """
    report = CheckReport()
    for group in groups:
        received = payload_received_by_group.get(group, 0)
        delivered = delivered_by_group.get(group, 0)
        if received > delivered:
            report.add(
                "minimality",
                f"group {group} received {received} payload messages "
                f"but delivered only {delivered}",
            )
    return report
