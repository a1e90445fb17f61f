"""Hypothesis strategies biased toward the single-shared-group conflict class.

The random sweep (:mod:`repro.fuzz.sweep`) draws destination sets uniformly,
which makes the 3-cycle precondition — a *cycle* of message pairs whose
destination sets intersect in exactly one group each — a rare event: PR 9's
hypothesis run needed hundreds of examples to stumble into one.  The
strategies here construct that precondition *by design*: every generated
scenario contains a cycle of ``n`` messages where cyclically-adjacent pairs
meet at exactly one dedicated group and nowhere else (extra per-message
groups are drawn from disjoint pools, so they can never widen an
intersection), plus optional unconstrained filler traffic.

Each pairwise order in the cycle is decided at an independent group, the
input class that can compose a global delivery cycle if the protocol's
acks and notifs miss one of those decisions.  Property tests drive these
scenarios unbatched and batched and assert ``ok`` — ``acyclic-order`` is a
hard property in both.

Hypothesis is a dev-only dependency: this module is imported by tests, never
by the runtime package.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Set, Tuple

from hypothesis import strategies as st

from ..overlay.base import GroupId
from .scenario import FuzzScenario, Submission

#: Widest overlay the strategies generate (keeps runs fast enough for CI).
MAX_GROUPS = 7


def single_shared_pairs(
    scenario: FuzzScenario,
) -> List[Tuple[Set[GroupId], Set[GroupId]]]:
    """All submission pairs whose destination sets share exactly one group."""
    shapes = [set(s.dst) for s in scenario.submissions if len(s.dst) > 1]
    return [
        (a, b)
        for i, a in enumerate(shapes)
        for b in shapes[i + 1 :]
        if len(a & b) == 1
    ]


@st.composite
def single_shared_group_scenarios(
    draw: st.DrawFn,
    max_groups: int = MAX_GROUPS,
    max_filler: int = 4,
) -> FuzzScenario:
    """Scenarios built around a cycle of single-shared-group message pairs.

    Construction (all draws shrink toward the minimal 3-message/3-group
    triangle):

    * a cycle of ``n`` in [3, 4] messages over ``n`` dedicated *meeting*
      groups — message ``i`` targets ``{meeting[i-1], meeting[i]}``, so
      cyclically-adjacent messages intersect in exactly that one group and
      non-adjacent ones (``n`` = 4) in none;
    * up to ``max_groups - n`` extra groups, each owned by exactly one cycle
      message (disjoint pools — intersections stay single-group);
    * up to ``max_filler`` unconstrained filler messages over the same
      overlay, because the cycle must stay closed amid unrelated traffic;
    * drawn submission times (the race window) and network jitter seed.
    """
    n_cycle = draw(st.integers(3, 4))
    n_extra = draw(st.integers(0, max_groups - n_cycle))
    num_groups = n_cycle + n_extra
    meeting = list(range(n_cycle))
    extras = list(range(n_cycle, num_groups))
    owners = [draw(st.integers(0, n_cycle - 1)) for _ in extras]

    dsts: List[Tuple[GroupId, ...]] = []
    for i in range(n_cycle):
        dst = {meeting[i - 1], meeting[i]}
        dst.update(g for g, owner in zip(extras, owners) if owner == i)
        dsts.append(tuple(sorted(dst)))

    n_filler = draw(st.integers(0, max_filler))
    for _ in range(n_filler):
        filler = draw(
            st.sets(
                st.integers(0, num_groups - 1),
                min_size=2,
                max_size=min(3, num_groups),
            )
        )
        dsts.append(tuple(sorted(filler)))

    submissions = tuple(
        Submission(
            at_ms=round(draw(st.floats(0.0, 150.0, allow_nan=False)), 1),
            msg_id=f"s{i}",
            dst=dst,
        )
        for i, dst in enumerate(dsts)
    )
    return FuzzScenario(
        name="single-shared-strategy",
        order=tuple(range(num_groups)),
        submissions=submissions,
        net_seed=draw(st.integers(0, 999)),
    )


@st.composite
def batched_single_shared_group_scenarios(
    draw: st.DrawFn,
) -> FuzzScenario:
    """The same conflict class, shipped through the batching client.

    A batch carrier is one ordering unit, so coalescing same-destination
    members must not open a cycle (nor wedge a carrier and break batch
    atomicity).
    """
    scenario = draw(single_shared_group_scenarios())
    return replace(
        scenario,
        batch_window=draw(st.integers(2, 4)),
        batch_delay_ms=5.0,
    )
