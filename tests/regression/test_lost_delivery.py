"""Regression: the ``replicated_inventory`` lost-delivery schedule.

The JSON schedules in ``schedules/`` were produced by the fuzz harness from
the example's exact workload (ISSUE 3): the full 300-transfer scenario
reproduces the original ``11/12 warehouses`` failure, and the ddmin-shrunk
12-submission schedule pins its root cause — the Strategy (c) ack race that
lets groups commit complementary halves of a delivery cycle, which then
deadlocked the highest-ranked destination forever (four transfers applied at
only one endpoint).

:class:`UnguardedGroup` is the seed's protocol (no pivot guard, no promise
maintenance), kept here as a test-only subclass: the shrunk schedule still
demonstrably fails on it and must stay clean on the production protocol.

The full schedule doubles as the gate for the Skeen-timestamp ordering
authority (ISSUE 4): the committed JSON pins ``exposure: "all"``, under
which the run must be *strictly* clean — zero violations **and** zero
acyclic-order anomalies.  With nothing exposed, the same schedule still
exhibits the residual anomaly of the down-only c-DAG information flow (never
a lost/duplicated/misordered-per-pair delivery), which pins both that the
hole is real and that an ordering authority is what closes it; with the
scenario's shapes declared the run passes strictly, like with everything
exposed.
"""

from pathlib import Path

import pytest

from repro.core.flexcast import FlexCastGroup
from repro.core.pivot_guard import PivotGuard
from repro.fuzz import FuzzScenario, run_scenario

SCHEDULES = Path(__file__).parent / "schedules"


class NoGuard(PivotGuard):
    """Acked pivots bind nothing."""

    def allows(self, msg_id, open_deps, history):
        return True

    def reack_targets(self, msg_id, prior, history):
        return []


class UnguardedGroup(FlexCastGroup):
    """FlexCast as the seed had it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.guard = NoGuard()


@pytest.fixture(scope="module")
def shrunk():
    return FuzzScenario.load(SCHEDULES / "lost_delivery_inventory.json")


@pytest.fixture(scope="module")
def full():
    return FuzzScenario.load(SCHEDULES / "inventory_seed3_full.json")


class TestShrunkSchedule:
    def test_fails_on_unguarded_protocol(self, shrunk, substitute_groups):
        substitute_groups(UnguardedGroup)
        result = run_scenario(shrunk, exposure="none")
        assert not result.strict_ok
        assert any(
            "[acyclic-order]" in v
            for v in result.violations + result.ordering_anomalies
        )

    def test_passes_on_fixed_protocol(self, shrunk):
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

    def test_strictly_clean_with_declared_shapes(self, full):
        # Exposing the hot components of the scenario's own shapes closes
        # the single-shared-group 3-cycle (ISSUE 10), so this schedule
        # passes strictly without exposing everything — the inventory
        # residual anomaly was that same conflict class.
        result = run_scenario(full, exposure="declared")
        assert result.strict_ok, result.violations + result.ordering_anomalies
        assert result.delivered == sum(len(s.dst) for s in full.submissions)

    def test_residual_anomaly_with_nothing_exposed(self, full):
        result = run_scenario(full, exposure="none")
        # Guaranteed properties still hold without the authority...
        assert result.ok, result.violations
        assert result.delivered == sum(len(s.dst) for s in full.submissions)
        # ...but the down-only information flow leaves the documented
        # acyclic-order hole this schedule was committed to reproduce.
        assert result.ordering_anomalies, (
            "expected the known acyclic-order anomaly with nothing "
            "exposed; if the base protocol now closes it, "
            "fold this into DESIGN.md"
        )

    def test_shrunk_is_much_smaller_than_full(self, shrunk, full):
        assert len(shrunk.submissions) <= 15 < len(full.submissions)
