"""Shrink a failing scenario to a minimal regression schedule.

Classic ddmin over the submission list, followed by a group-pruning pass:

1. **ddmin** — try removing chunks of submissions (halving chunk sizes down
   to single messages); keep a removal whenever the reduced scenario still
   fails.  Because a run is a pure function of its scenario, every probe is
   deterministic.
2. **group pruning** — try dropping rank-order entries no remaining
   submission addresses.  Non-destination groups still participate in the
   protocol (Strategy (c) notifs route through them), so each candidate
   removal is re-validated against the failure predicate rather than assumed
   safe.

The predicate is "the harness reports at least one violation" by default, so
the shrinker preserves *a* failure, not necessarily the original one — which
is what a regression schedule needs (any pinned violation is a real bug).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, List, Optional

from .harness import run_scenario
from .scenario import FuzzScenario, Submission

Predicate = Callable[[FuzzScenario], bool]


def default_predicate() -> Predicate:
    """Fail on *any* checked property — a regression schedule should pin
    whatever the checker can see."""

    def fails(scenario: FuzzScenario) -> bool:
        return not run_scenario(scenario).ok

    return fails


def shrink_scenario(
    scenario: FuzzScenario,
    fails: Optional[Predicate] = None,
    max_probes: int = 2_000,
) -> FuzzScenario:
    """Return a (locally) minimal scenario that still satisfies ``fails``."""
    if fails is None:
        fails = default_predicate()
    if not fails(scenario):
        raise ValueError("shrink_scenario needs a failing scenario to start from")

    probes = 0

    def probe(candidate: FuzzScenario) -> bool:
        nonlocal probes
        if probes >= max_probes:
            return False
        probes += 1
        return fails(candidate)

    current = _prune_groups(_ddmin_submissions(scenario, probe), probe)
    # A second submission pass often pays off after groups shrank.
    return _ddmin_submissions(current, probe)


def _ddmin_submissions(scenario: FuzzScenario, probe: Predicate) -> FuzzScenario:
    submissions: List[Submission] = list(scenario.submissions)
    chunk = max(1, len(submissions) // 2)
    while chunk >= 1 and len(submissions) > 1:
        removed_any = False
        start = 0
        while start < len(submissions):
            candidate = submissions[:start] + submissions[start + chunk :]
            if candidate and probe(replace(scenario, submissions=tuple(candidate))):
                submissions = candidate
                removed_any = True
                # Re-test the same offset: a new chunk slid into it.
            else:
                start += chunk
        if not removed_any:
            chunk //= 2
    return replace(scenario, submissions=tuple(submissions))


def _prune_groups(scenario: FuzzScenario, probe: Predicate) -> FuzzScenario:
    used = {gid for sub in scenario.submissions for gid in sub.dst}
    current = scenario
    for gid in scenario.order:
        if gid in used or len(current.order) <= 2:
            continue
        candidate = replace(current, order=tuple(g for g in current.order if g != gid))
        if probe(candidate):
            current = candidate
    return current
