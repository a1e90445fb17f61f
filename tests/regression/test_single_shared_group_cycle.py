"""Regression: the single-shared-group 3-cycle schedule (ISSUE 10).

The committed JSON is the ddmin-shrunk form of the hypothesis-found witness
from PR 9: three messages whose destination sets pairwise-intersect in
exactly *one* group get their three pairwise orders decided at three
independent groups, which closes a global delivery cycle
(``h0-8 < h0-3 < h0-5 < h0-8``) that the pivot guard never observes — the
order of each pair is forced the moment its shared group delivers the pair's
first element, before that group has heard of the second.

``exposure="none"`` runs the protocol with nothing exposed, so the schedule
still demonstrably fails there; with the scenario's shapes declared (the
harness default) it must be *strictly* clean — ``acyclic-order`` is a hard
property then.  Exposing everything was never affected (final timestamps
order every global message) and stays clean too.
"""

from pathlib import Path

import pytest

from repro.fuzz import FuzzScenario, run_scenario

SCHEDULES = Path(__file__).parent / "schedules"


@pytest.fixture(scope="module")
def shrunk():
    return FuzzScenario.load(SCHEDULES / "single_shared_group_3cycle.json")


class TestSingleSharedGroupCycleSchedule:
    def test_fails_with_nothing_exposed(self, shrunk):
        result = run_scenario(shrunk, exposure="none")
        assert not result.strict_ok
        assert any(
            "[acyclic-order]" in v
            for v in result.violations + result.ordering_anomalies
        )
        # The hole never loses a delivery — poison tolerance turns
        # the cycle into a detected anomaly, not a deadlock.
        assert result.ok, result.violations
        assert result.delivered == sum(len(s.dst) for s in shrunk.submissions)

    def test_passes_with_declared_shapes(self, shrunk):
        result = run_scenario(shrunk)
        assert result.strict_ok, result.violations + result.ordering_anomalies
        assert result.delivered == sum(len(s.dst) for s in shrunk.submissions)

    def test_passes_with_everything_exposed(self, shrunk):
        result = run_scenario(shrunk, exposure="all")
        assert result.strict_ok, result.violations + result.ordering_anomalies
        assert result.delivered == sum(len(s.dst) for s in shrunk.submissions)

    def test_schedule_is_single_shared_group_shaped(self, shrunk):
        """The committed shape class: some pair of destination sets
        intersects in exactly one group (what exposes it to the claims)."""
        shapes = [set(s.dst) for s in shrunk.submissions if len(s.dst) > 1]
        assert any(
            len(a & b) == 1
            for i, a in enumerate(shapes)
            for b in shapes[i + 1 :]
        )
