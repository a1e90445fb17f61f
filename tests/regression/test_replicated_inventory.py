"""Regression: the inventory schedule on what ships — groups × replicas under
``Exposure.none()`` — loses no delivery to a guard escape.

``inventory_seed3_full.json`` is the one committed schedule whose run needs
the pivot guard's escape timer: with nothing exposed, two stand-offs at group
6 outlive ``PivotGuard.GRACE_MS`` and the ticks release 1 + 12 messages.  On
12 ``ReplicatedGroup``s that is the path no test entered before this file
(ISSUE 21): at the parent commit the fuzz harness could not host it at all
(``replication_factor`` > 1 collapsed the scenario to one group), and hosted
the way this harness hosts it, the parent's ``smr/replica.py`` fails the
R = 3 case below with 42 ``[validity/agreement]`` misses — 558 of the 600
destination deliveries — because the protocol copy's timer ran on each
replica's own clock, outside ``GroupReplica._apply`` with the leader's gate
shut, so what the released messages had to send downstream was dropped.  A
timer is now ordered through the group's log
(:class:`repro.smr.replica.TimerFired`).  R = 1 is the same schedule on bare
groups: the control the replicated runs must match.
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


def assert_nothing_lost(result, full):
    # The guaranteed bucket: validity/agreement, integrity, prefix order,
    # conservation, leaks — and, for replicated groups, that every group's
    # replicas agree on ``local_deliveries`` (``[smr-agreement]``) and every
    # restart passes the recovery oracle.
    assert result.ok, result.violations[:5]
    assert result.delivered == sum(len(s.dst) for s in full.submissions) == 600
    # Both escapes fired at the protocol copy that speaks for group 6 (its
    # leader's): the run cannot pass by the timer never arming.
    assert result.guard_escapes == 2
    # The documented acyclic-order hole of ``exposure="none"`` is unchanged.
    assert result.ordering_anomalies


@pytest.mark.parametrize("replication_factor", [1, 3])
def test_inventory_replay_with_nothing_exposed(full, replication_factor):
    scenario = replace(full, replication_factor=replication_factor)
    assert_nothing_lost(run_scenario(scenario, exposure="none"), full)


def test_follower_restart_in_the_group_whose_timer_fires(full):
    # The shape that ships with a fault in it: 12 groups × 3 replicas, a
    # follower of group 3 and then one of group 6 crashed and rebooted from
    # their WALs.  Group 6's goes down with the first escape timer pending
    # (armed near 1,229 ms) and is still down when it fires near 1,730 ms: its
    # replay re-arms the timer and catch-up brings the firing.
    scenario = apply_profile(replace(full, profile_seed=115), "cluster-crash-restart")
    assert [(c.group, c.replica) for c in scenario.crashes] == [(3, 1), (6, 2)]
    assert scenario.crashes[1].at_ms < 1_700 < 1_800 < scenario.restarts[1].at_ms
    result = run_scenario(scenario, exposure="none")
    assert_nothing_lost(result, full)
    assert result.restarts == 2
