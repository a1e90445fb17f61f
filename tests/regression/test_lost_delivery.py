"""Regression: the ``replicated_inventory`` lost-delivery schedule.

The JSON schedules in ``schedules/`` were produced by the fuzz harness from
the example's exact workload: the full 300-transfer scenario reproduces the
original ``11/12 warehouses`` failure, and the ddmin-shrunk 12-submission
schedule pins its root cause — the Strategy (c) ack race that lets groups
commit complementary halves of a delivery cycle, which then deadlocked the
highest-ranked destination forever (four transfers applied at only one
endpoint).

A notified group now acks every notifier (DESIGN.md "Ordering: one ack per
notifier"), and both schedules are *strictly* clean: every property holds
and every transfer reaches both endpoints.  The full schedule's JSON still
carries the ``exposure`` key it was recorded with, which loading ignores.
"""

from pathlib import Path

import pytest

from repro.fuzz import FuzzScenario, run_scenario

SCHEDULES = Path(__file__).parent / "schedules"


@pytest.fixture(scope="module")
def shrunk():
    return FuzzScenario.load(SCHEDULES / "lost_delivery_inventory.json")


@pytest.fixture(scope="module")
def full():
    return FuzzScenario.load(SCHEDULES / "inventory_seed3_full.json")


class TestShrunkSchedule:
    def test_strictly_clean(self, shrunk):
        result = run_scenario(shrunk)
        assert result.ok, result.violations
        # Everything submitted is delivered at every destination.
        assert result.delivered == sum(len(s.dst) for s in shrunk.submissions)


class TestFullInventorySchedule:
    """The example's full workload, replayed through the harness: the tier-1
    form of the CI gate ``python -m repro.fuzz --replay
    .../inventory_seed3_full.json``."""

    def test_strictly_clean(self, full):
        result = run_scenario(full)
        assert result.ok, result.violations
        # Every transfer reaches both endpoints (the original bug lost 4).
        assert result.delivered == sum(len(s.dst) for s in full.submissions)

    def test_shrunk_is_much_smaller_than_full(self, shrunk, full):
        assert len(shrunk.submissions) <= 15 < len(full.submissions)
