"""Bounded-exhaustive schedule exploration for small FlexCast instances.

The fuzz sweep *samples* schedules; this module *enumerates* them.  For a
small scenario — a destination-set shape over a handful of groups, every
message submitted up front — the only nondeterminism FlexCast sees is the
order in which channel deliveries happen.  The explorer drives the protocol
through an explicit-choice fabric instead of the timed simulator: at every
step the set of *enabled* events (the head of each non-empty FIFO channel)
is a branch point, and a depth-first search over those choices covers every
reachable interleaving.  Each leaf runs the harness's oracle core
(:func:`repro.fuzz.harness.check_deliveries`, i.e.
:func:`repro.checker.properties.check_trace`), so a clean exploration is an
exhaustive-on-this-model proof — the CADP-style methodology (PAPERS.md)
applied to our own stack: small instances, all behaviours, each property
stated once and checked at every leaf.

Two reductions keep small topologies tractable without losing coverage:

* **Per-channel FIFO** — links are FIFO (the simulator's channel clock, TCP
  in the process runtime), so only the *head* of each channel is ever
  enabled; interleavings that reorder one channel's messages are not real
  behaviours and are never generated.
* **Sleep sets** (Godefroid) — two enabled deliveries to *different* groups
  commute: each mutates only its receiver's state and appends to disjoint
  outgoing channels, so executing them in either order reaches the same
  state.  After exploring the subtree where independent event ``a`` precedes
  ``b``, the sibling subtree re-exploring ``b`` before ``a`` is pruned by
  putting ``a`` to sleep.  Only genuinely conflicting orders (two deliveries
  racing into the *same* group) branch.

FlexCast arms no timer, so a leaf is reached when no channel has traffic.

CLI (see ``python -m repro.fuzz explore --help``)::

    # exhaustive sweep of every shape up to 3 msgs x 3 groups (the CI gate:
    # 26 shapes, 623 leaves, 4802 nodes); each violating interleaving is
    # written as a schedule.  The single-shared-group 3-cycle needs more
    # groups than this bound, and
    # tests/regression/test_single_shared_group_cycle.py pins it through the
    # fuzz harness.
    python -m repro.fuzz explore --max-msgs 3 --max-groups 3 --all-shapes \
        --out-dir explore-artifacts

    # replay one committed interleaving:
    python -m repro.fuzz explore --replay <schedule.json>
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Deque,
    Dict,
    FrozenSet,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core.flexcast import FlexCastProtocol
from ..core.message import ClientRequest, Message
from ..overlay.cdag import CDagOverlay
from ..protocols.base import RecordingSink
from ..sim.transport import Transport
from .harness import check_deliveries, peak_rss_mib

CLIENT = "explore-client"

#: Schema tag for committed explorer schedules (distinct from FuzzScenario's:
#: these pin a *choice sequence* over the explicit-choice fabric, not a
#: timed simulator run).
SCHEMA = "flexcast-explore-schedule-v1"

#: Per-execution step budget; exceeding it reports a livelock violation.
MAX_STEPS = 20_000

#: A channel is identified by (sender node, receiver node); an event is the
#: delivery of the channel's head envelope.
Channel = Tuple[Hashable, Hashable]


# --------------------------------------------------------------------- model
@dataclass(frozen=True)
class ShapeCase:
    """One explored instance: a destination-set multiset over ``0..k-1``.

    The overlay rank order is the identity (group id == rank), so
    enumerating all labelled shapes covers all rank assignments — which
    group is an lca, which is the single shared group — without a separate
    rank axis.
    """

    num_groups: int
    destinations: Tuple[Tuple[int, ...], ...]

    @property
    def order(self) -> Tuple[int, ...]:
        return tuple(range(self.num_groups))

    def label(self) -> str:
        dsts = "+".join("".join(map(str, d)) for d in self.destinations)
        return f"g{self.num_groups}[{dsts}]"

    def to_dict(self, choices: Sequence[Channel]) -> dict:
        return {
            "schema": SCHEMA,
            "num_groups": self.num_groups,
            "destinations": [list(d) for d in self.destinations],
            "choices": [[str(s), str(d)] for s, d in choices],
        }

    @staticmethod
    def from_dict(data: dict) -> Tuple["ShapeCase", List[Channel]]:
        """A committed schedule's case and choices; the ``exposure`` key of
        a schedule recorded while the explorer had one is ignored."""
        if data.get("schema") != SCHEMA:
            raise ValueError(f"not an explorer schedule: {data.get('schema')!r}")
        case = ShapeCase(
            num_groups=int(data["num_groups"]),
            destinations=tuple(tuple(d) for d in data["destinations"]),
        )
        choices = [_parse_node_pair(s, d, case) for s, d in data["choices"]]
        return case, choices


def _parse_node_pair(src: str, dst: str, case: ShapeCase) -> Channel:
    def node(name: str) -> Hashable:
        return int(name) if name.isdigit() else name

    return (node(src), node(dst))


# -------------------------------------------------------------------- fabric
class _Fabric:
    """Explicit-choice message fabric: FIFO channels and a step-counter
    clock, which feeds only trace/sink timestamps.  It has no timers: a
    ``schedule`` call raises (:class:`~repro.sim.transport.Transport`)."""

    def __init__(self) -> None:
        self.time = 0.0
        self.channels: Dict[Channel, Deque[object]] = {}
        self.handlers: Dict[Hashable, Callable[[Hashable, object], None]] = {}
        self.sinks: Set[Hashable] = set()

    def register(self, node: Hashable, handler) -> None:
        self.handlers[node] = handler

    def register_sink(self, node: Hashable) -> None:
        """A node whose inbound traffic is dropped (pseudo-clients): their
        deliveries cannot affect protocol state, so modelling them as branch
        points would only square the tree."""
        self.sinks.add(node)

    def enqueue(self, src: Hashable, dst: Hashable, payload: object) -> None:
        if dst in self.sinks:
            return
        self.channels.setdefault((src, dst), deque()).append(payload)

    def enabled(self) -> List[Channel]:
        """Non-empty channels in canonical order (the DFS branch alphabet)."""
        return sorted(
            (c for c, q in self.channels.items() if q),
            key=lambda c: (str(c[1]), str(c[0])),
        )

    def deliver(self, channel: Channel) -> None:
        queue = self.channels[channel]
        payload = queue.popleft()
        self.time += 1.0
        self.handlers[channel[1]](channel[0], payload)

    def close(self) -> None:
        """End the execution: drop the handlers, which lead back to the
        groups that hold the fabric."""
        self.handlers.clear()


class _ExploreTransport(Transport):
    def __init__(self, fabric: _Fabric, node_id: Hashable) -> None:
        self._fabric = fabric
        self.node_id = node_id

    def send(self, dst: Hashable, payload: object) -> None:
        self._fabric.enqueue(self.node_id, dst, payload)

    def now(self) -> float:
        return self._fabric.time


# ----------------------------------------------------------------- execution
@dataclass
class RunOutcome:
    """One (possibly partial) execution of a :class:`ShapeCase`."""

    case: ShapeCase
    #: Choices actually taken, in order (the full path to this state).
    path: Tuple[Channel, ...] = ()
    #: Enabled set at the stop point (empty = the run reached a leaf).
    enabled: Tuple[Channel, ...] = ()
    finished: bool = False
    violations: List[str] = field(default_factory=list)
    delivered: int = 0
    steps: int = 0
    #: How many recorded choices were honored before the trace diverged
    #: (non-strict replay only; None = every choice was honored).
    choices_honored: Optional[int] = None


def execute(
    case: ShapeCase,
    choices: Sequence[Channel] = (),
    stop_after: Optional[int] = None,
    strict_choices: bool = True,
) -> RunOutcome:
    """Run ``case`` following ``choices``, then first-enabled to the end.

    ``stop_after=N`` halts after N delivery steps and reports the enabled
    set there (the DFS uses this to expand one node without running the
    oracles); ``None`` runs to quiescence and checks every oracle.
    ``strict_choices=False`` tolerates a recorded choice that is no longer
    enabled (the replay path for committed schedules — see the loop body).
    The fabric is closed before this returns, so the execution is freed by
    reference counting.
    """
    fabric = _Fabric()
    try:
        return _execute(fabric, case, choices, stop_after, strict_choices)
    finally:
        fabric.close()


def _execute(
    fabric: _Fabric,
    case: ShapeCase,
    choices: Sequence[Channel],
    stop_after: Optional[int],
    strict_choices: bool,
) -> RunOutcome:
    overlay = CDagOverlay(list(case.order))
    dsts = [frozenset(d) for d in case.destinations]
    protocol = FlexCastProtocol(overlay)
    sink = RecordingSink(clock=lambda: fabric.time)
    groups = {}
    for gid in case.order:
        group = protocol.create_group(gid, _ExploreTransport(fabric, gid), sink)
        groups[gid] = group
        fabric.register(gid, group.on_envelope)

    # One client node (= one FIFO channel) per submission: submissions from
    # independent clients race on the wire, so two requests entering the
    # same lca must be a branch point, not a fixed arrival order.
    messages = {}
    for i, dst in enumerate(dsts):
        client = f"{CLIENT}-{i}"
        fabric.register(client, lambda s, p: None)
        fabric.register_sink(client)
        message = Message.create(dst, sender=client, msg_id=f"e{i}")
        messages[message.msg_id] = message
        entry = protocol.entry_groups(message)[0]
        fabric.enqueue(client, entry, ClientRequest(message=message))

    outcome = RunOutcome(case=case)
    path: List[Channel] = []
    step = 0
    while True:
        enabled = fabric.enabled()
        if not enabled:
            outcome.finished = True
            break
        if stop_after is not None and step >= stop_after:
            outcome.enabled = tuple(enabled)
            break
        if step >= MAX_STEPS:
            outcome.violations.append(
                f"[livelock] exploration exceeded {MAX_STEPS} steps"
            )
            outcome.finished = True
            break
        if step < len(choices):
            channel = choices[step]
            if channel not in enabled:
                if strict_choices:
                    raise ValueError(
                        f"choice {step} {channel!r} is not enabled "
                        f"(have {enabled})"
                    )
                # Committed schedules outlive protocol changes: once the
                # recorded trace diverges from today's traffic, stop
                # following it and run the rest first-enabled — the oracles
                # still grade a complete execution.
                outcome.choices_honored = step
                choices = ()
                channel = enabled[0]
        else:
            channel = enabled[0]
        path.append(channel)
        fabric.deliver(channel)
        step += 1

    outcome.path = tuple(path)
    outcome.steps = step
    if outcome.finished:
        sequences, violations = check_deliveries(sink, case.order, messages)
        outcome.delivered = sum(len(s) for s in sequences.values())
        outcome.violations.extend(violations)
    return outcome


# ----------------------------------------------------------------------- DFS
@dataclass
class ExploreStats:
    """Aggregate result of exploring one shape."""

    case: ShapeCase
    leaves: int = 0
    nodes: int = 0
    pruned: int = 0
    max_depth: int = 0
    #: Distinct violation messages with one witness path each.
    violations: Dict[str, Tuple[Channel, ...]] = field(default_factory=dict)
    truncated: bool = False
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations


def _independent(a: Channel, b: Channel) -> bool:
    """Deliveries commute iff they hit different receivers: each mutates
    only its receiver's state and appends to that receiver's *outgoing*
    channels, and popping one channel's head never disables another's."""
    return a[1] != b[1]


def explore_shape(
    case: ShapeCase,
    max_leaves: Optional[int] = None,
    time_cap_s: Optional[float] = None,
    prune: bool = True,
    on_violation: Optional[Callable[[ExploreStats, RunOutcome], None]] = None,
) -> ExploreStats:
    """Depth-first search over every delivery interleaving of ``case``.

    With ``prune`` on (the default), sleep sets cut commuting permutations;
    the reachable state coverage is unchanged (see the module docstring).
    ``max_leaves``/``time_cap_s`` bound the search — when either trips, the
    result is marked ``truncated`` and the caller must report it as partial,
    never as an exhaustive pass.
    """
    stats = ExploreStats(case=case)
    started = time.monotonic()

    def over_budget() -> bool:
        if max_leaves is not None and stats.leaves >= max_leaves:
            return True
        if time_cap_s is not None and time.monotonic() - started > time_cap_s:
            return True
        return False

    def dfs(prefix: Tuple[Channel, ...], sleep: FrozenSet[Channel]) -> None:
        if stats.truncated or over_budget():
            stats.truncated = True
            return
        stats.nodes += 1
        stats.max_depth = max(stats.max_depth, len(prefix))
        probe = execute(case, prefix, stop_after=len(prefix))
        if probe.finished:
            # ``prefix`` runs to quiescence with no further choice: the
            # probe above already completed the run, so grade the leaf.
            stats.leaves += 1
            for violation in probe.violations:
                if violation not in stats.violations:
                    stats.violations[violation] = probe.path
                    if on_violation is not None:
                        on_violation(stats, probe)
            return
        candidates = [c for c in probe.enabled if c not in sleep]
        if not candidates:
            # Every enabled move is asleep: each commutes with a sibling
            # subtree already explored, so this state's behaviours are
            # covered there.
            stats.pruned += 1
            return
        explored: List[Channel] = []
        for channel in candidates:
            child_sleep = frozenset(
                x
                for x in (set(sleep) | set(explored))
                if _independent(x, channel)
            )
            dfs(prefix + (channel,), child_sleep if prune else frozenset())
            explored.append(channel)

    dfs((), frozenset())
    stats.elapsed_s = time.monotonic() - started
    return stats


# --------------------------------------------------------- shape enumeration
def enumerate_shapes(
    max_msgs: int,
    max_groups: int,
    single_shared_only: bool = True,
) -> Iterator[ShapeCase]:
    """All labelled destination-set multisets up to the given bounds.

    Shapes are *labelled*: group id equals overlay rank, so every rank
    assignment (which group arbitrates, which is the single shared one) is
    its own case.  ``single_shared_only`` keeps the shapes in the 3-cycle's
    conflict class — some pair of destination sets intersecting in exactly
    one group; shapes without that pattern cannot expose the bug the
    explorer exists to retire (and are sampled broadly by the fuzz sweep).
    Every group must be addressed by some message, otherwise the case is a
    relabelling of a smaller ``num_groups`` instance already enumerated.
    """
    for k in range(2, max_groups + 1):
        subsets = [
            frozenset(c)
            for size in range(2, k + 1)
            for c in itertools.combinations(range(k), size)
        ]
        for m in range(2, max_msgs + 1):
            for combo in itertools.combinations_with_replacement(subsets, m):
                if frozenset().union(*combo) != frozenset(range(k)):
                    continue
                if single_shared_only and not any(
                    len(a & b) == 1 for a, b in itertools.combinations(combo, 2)
                ):
                    continue
                yield ShapeCase(
                    num_groups=k,
                    destinations=tuple(tuple(sorted(d)) for d in combo),
                )


# ------------------------------------------------------------------------ CLI
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz explore",
        description="bounded-exhaustive FlexCast schedule exploration",
    )
    parser.add_argument("--max-msgs", type=int, default=3)
    parser.add_argument("--max-groups", type=int, default=3)
    parser.add_argument(
        "--all-shapes",
        action="store_true",
        help="include shapes with no single-shared-group pair",
    )
    parser.add_argument(
        "--no-prune",
        dest="prune",
        action="store_false",
        help="disable sleep-set pruning (cross-validation of the reduction)",
    )
    parser.add_argument(
        "--max-leaves", type=int, default=None, help="leaf cap per shape"
    )
    parser.add_argument(
        "--time-cap-s", type=float, default=None, help="time cap per shape"
    )
    parser.add_argument(
        "--total-time-cap-s",
        type=float,
        default=None,
        help="overall wall-clock budget for the sweep",
    )
    parser.add_argument("--out-dir", default=None, help="write violating schedules here")
    parser.add_argument("--replay", default=None, help="replay one schedule JSON")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    if args.replay:
        data = json.loads(Path(args.replay).read_text())
        case, choices = ShapeCase.from_dict(data)
        outcome = execute(case, choices, strict_choices=False)
        honored = (
            f"{outcome.choices_honored}/{len(choices)} choices honored "
            "(trace diverged — protocol traffic changed since recording), "
            if outcome.choices_honored is not None
            else ""
        )
        print(
            f"replayed {case.label()}: {honored}steps={outcome.steps} "
            f"delivered={outcome.delivered} violations={len(outcome.violations)}"
        )
        for violation in outcome.violations:
            print(f"  {violation}")
        return 0 if not outcome.violations else 1

    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    started = time.monotonic()
    shapes = list(
        enumerate_shapes(
            args.max_msgs,
            args.max_groups,
            single_shared_only=not args.all_shapes,
        )
    )
    total_leaves = total_nodes = total_violations = 0
    truncated_shapes = 0
    dirty: List[ExploreStats] = []
    swept_all = True
    for index, case in enumerate(shapes):
        remaining = None
        if args.total_time_cap_s is not None:
            remaining = args.total_time_cap_s - (time.monotonic() - started)
            if remaining <= 0:
                swept_all = False
                print(
                    f"total time cap hit after {index}/{len(shapes)} shapes "
                    f"— the remaining {len(shapes) - index} were NOT explored"
                )
                break
        time_cap = args.time_cap_s
        if remaining is not None:
            time_cap = min(time_cap, remaining) if time_cap else remaining

        def save_violation(stats: ExploreStats, outcome: RunOutcome) -> None:
            if out_dir is None:
                return
            path = out_dir / f"explore-{stats.case.label()}-{len(stats.violations)}.json"
            path.write_text(
                json.dumps(stats.case.to_dict(outcome.path), indent=2) + "\n"
            )
            print(f"wrote {path}")

        stats = explore_shape(
            case,
            max_leaves=args.max_leaves,
            time_cap_s=time_cap,
            prune=args.prune,
            on_violation=save_violation,
        )
        total_leaves += stats.leaves
        total_nodes += stats.nodes
        total_violations += len(stats.violations)
        if stats.truncated:
            truncated_shapes += 1
        if stats.violations:
            dirty.append(stats)
        if not args.quiet:
            status = "VIOLATIONS" if stats.violations else "clean"
            extra = " (truncated)" if stats.truncated else ""
            print(
                f"{case.label():<40} leaves={stats.leaves:<7} "
                f"pruned={stats.pruned:<6} {status}{extra}",
                flush=True,
            )

    elapsed = time.monotonic() - started
    exhaustive = swept_all and truncated_shapes == 0
    print(
        f"\nexplore: {len(shapes)} shapes, {total_leaves} leaves, "
        f"{total_nodes} nodes, {total_violations} distinct violations in "
        f"{elapsed:.1f}s"
        + ("" if exhaustive else f" — PARTIAL ({truncated_shapes} shapes truncated)")
        + f", peak RSS {peak_rss_mib():.0f} MiB"
    )
    for stats in dirty:
        print(f"\n{stats.case.label()}:")
        for violation, path in list(stats.violations.items())[:5]:
            print(f"  {violation}")
            print(f"    witness: {' '.join(f'{s}->{d}' for s, d in path)}")
    return 0 if total_violations == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
