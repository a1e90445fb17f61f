"""Lossy runs that closed a global cycle, now held to every property.

Each schedule under ``schedules/lossy_channel_cycle_*.json`` is a ``loss``
sweep seed (276, 395, 6374), shrunk.  Before FlexCast numbered its channels,
an envelope the profile dropped took its history edges with it for good,
and each of them replayed with an ``[acyclic-order]`` finding.  A lost
envelope now stops its channel: the receiver refuses every later envelope
from that sender and counts it in ``flexcast_channel_gaps_total``.  So each
replays with no finding at all, and with at least one counted gap: the loss
still happens, and costs liveness only.
"""

from pathlib import Path

import pytest

from repro.fuzz import FuzzScenario, run_scenario
from repro.obs import Observability

SCHEDULES = sorted(
    (Path(__file__).parent / "schedules").glob("lossy_channel_cycle_*.json")
)


def test_the_witnesses_are_committed():
    assert len(SCHEDULES) >= 2


@pytest.mark.parametrize("path", SCHEDULES, ids=lambda path: path.stem)
def test_replays_clean_with_a_counted_gap(path):
    scenario = FuzzScenario.load(path)
    assert scenario.profile == "loss" and not scenario.expect_all_delivered
    obs = Observability()
    result = run_scenario(scenario, obs=obs)
    assert result.ok, result.violations
    counters = obs.registry.snapshot()["counters"]
    gaps = sum(
        value
        for name, value in counters.items()
        if name.startswith("flexcast_channel_gaps_total")
    )
    assert gaps >= 1
