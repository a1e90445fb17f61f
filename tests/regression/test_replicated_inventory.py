"""Regression: the inventory schedule on what ships — groups × replicas —
is strictly clean.

``inventory_seed3_full.json`` is the committed schedule whose run once
needed a pivot guard and its escape timer: two stand-offs at group 6
outlived the grace period, and the escape timer was ordered through each
group's log.  A notified group now acks every notifier (DESIGN.md
"Ordering: one ack per notifier"), so nothing stands off, no protocol copy
arms a timer, and the run is clean with acyclic order included.  R = 1 is
the same schedule on bare groups: the control the replicated runs must
match.
"""

from dataclasses import replace
from pathlib import Path

import pytest

from repro.fuzz import FuzzScenario, run_scenario
from repro.fuzz.profiles import apply_profile

SCHEDULES = Path(__file__).parent / "schedules"


@pytest.fixture(scope="module")
def full():
    return FuzzScenario.load(SCHEDULES / "inventory_seed3_full.json")


def assert_strictly_clean(result, full):
    # Every checked property: validity/agreement, integrity, prefix and
    # acyclic order, conservation, leaks — and, for replicated groups, that
    # every group's replicas agree on ``local_deliveries``
    # (``[smr-agreement]``) and every restart passes the recovery oracle.
    assert result.ok, result.violations[:5]
    assert result.delivered == sum(len(s.dst) for s in full.submissions) == 600


@pytest.mark.parametrize("replication_factor", [1, 3])
def test_inventory_replay(full, replication_factor):
    scenario = replace(full, replication_factor=replication_factor)
    assert_strictly_clean(run_scenario(scenario), full)


def test_follower_restarts_in_groups_3_and_6(full):
    # The shape that ships with a fault in it: 12 groups × 3 replicas, a
    # follower of group 3 and then one of group 6 crashed and rebooted from
    # their WALs while traffic flows.
    scenario = apply_profile(replace(full, profile_seed=115), "cluster-crash-restart")
    assert [(c.group, c.replica) for c in scenario.crashes] == [(3, 1), (6, 2)]
    result = run_scenario(scenario)
    assert_strictly_clean(result, full)
    assert result.restarts == 2
