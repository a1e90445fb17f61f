"""Regression: the ``replicated_inventory`` lost-delivery schedule.

The JSON schedules in ``schedules/`` were produced by the fuzz harness from
the example's exact workload (ISSUE 3): the full 300-transfer scenario
reproduces the original ``11/12 warehouses`` failure, and the ddmin-shrunk
12-submission schedule pins its root cause — the Strategy (c) ack race that
lets groups commit complementary halves of a delivery cycle, which then
deadlocked the highest-ranked destination forever (four transfers applied at
only one endpoint).

A notified group now acks every notifier (DESIGN.md "Ordering: one ack per
notifier"), and both schedules are *strictly* clean — zero violations
**and** zero acyclic-order anomalies — under every exposure, ``none``
included.  The full schedule's committed JSON pins ``exposure: "all"``, the
gate for the Skeen-timestamp ordering authority (ISSUE 4).
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
    def test_strictly_clean_with_nothing_exposed(self, shrunk):
        result = run_scenario(shrunk, exposure="none")
        assert result.strict_ok, result.violations + result.ordering_anomalies
        assert result.delivered == sum(len(s.dst) for s in shrunk.submissions)

    def test_passes_with_declared_shapes(self, shrunk):
        result = run_scenario(shrunk)
        assert result.strict_ok, result.violations + result.ordering_anomalies
        # Everything submitted is delivered at every destination.
        assert result.delivered == sum(len(s.dst) for s in shrunk.submissions)

    def test_passes_with_everything_exposed(self, shrunk):
        result = run_scenario(shrunk, exposure="all")
        assert result.strict_ok, result.violations + result.ordering_anomalies
        assert result.delivered == sum(len(s.dst) for s in shrunk.submissions)


class TestFullInventorySchedule:
    """The example's full workload, replayed through the harness.

    The committed schedule pins ``exposure: "all"``, so this is the tier-1 form
    of the CI gate ``python -m repro.fuzz --replay .../inventory_seed3_full.json``.
    """

    def test_strictly_clean_with_everything_exposed(self, full):
        assert full.exposure == "all", "committed schedule must expose everything"
        result = run_scenario(full)
        # Hard gate: zero violations of any kind, anomalies included — with
        # the ordering authority on, acyclic order is a guaranteed property.
        assert result.strict_ok, result.violations + result.ordering_anomalies
        # Every transfer reaches both endpoints (the original bug lost 4).
        assert result.delivered == sum(len(s.dst) for s in full.submissions)

    @pytest.mark.parametrize("exposure", ["declared", "none"])
    def test_strictly_clean_with_less_exposed(self, full, exposure):
        result = run_scenario(full, exposure=exposure)
        assert result.strict_ok, result.violations + result.ordering_anomalies
        assert result.delivered == sum(len(s.dst) for s in full.submissions)

    def test_shrunk_is_much_smaller_than_full(self, shrunk, full):
        assert len(shrunk.submissions) <= 15 < len(full.submissions)
