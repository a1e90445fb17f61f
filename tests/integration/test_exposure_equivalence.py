"""Differential equivalence: exposing everything is a declared universe in
which every group is hot.

ISSUE 13 folded the two timestamp modes into one
:class:`~repro.core.timestamps.Exposure` value, on the claim that "all" is
nothing but the limit case of "declared".  This suite pins the claim: the
same scenario runs once with ``exposure="all"`` and once with a declared
universe — the scenario's own shapes plus every 2-subset of the rank order,
so every pair of groups single-intersects and one hot component owns them
all — and the per-group delivery sequences, simulator event count, oracle
findings and every ``flexcast_*`` counter must be equal.
"""

import itertools

import pytest

import repro.fuzz.harness as harness
from repro.core.message import reset_message_ids
from repro.core.timestamps import Exposure
from repro.fuzz import generate_scenario, run_scenario
from repro.fuzz.harness import scenario_conflict_shapes
from repro.fuzz.profiles import apply_profile
from repro.obs import Observability


def every_group_hot(scenario):
    pairs = map(frozenset, itertools.combinations(scenario.order, 2))
    return (*scenario_conflict_shapes(scenario), *pairs)


def _run(scenario, exposure):
    reset_message_ids()  # batch ids draw from the process-wide counter
    obs = Observability()
    result = run_scenario(scenario, exposure=exposure, obs=obs)
    return result, obs.registry.snapshot()["counters"]


@pytest.mark.parametrize("profile", ["none", "loss", "dup", "cluster-crash-restart"])
@pytest.mark.parametrize("seed", range(1, 9))
def test_all_equals_every_group_hot(seed, profile, monkeypatch):
    scenario = apply_profile(generate_scenario(seed, profile), profile)
    assert len(scenario.order) >= 3
    universe = Exposure.declared(every_group_hot(scenario))
    assert universe.hot_groups == frozenset(scenario.order)

    everything, everything_counters = _run(scenario, "all")
    monkeypatch.setattr(harness, "scenario_conflict_shapes", every_group_hot)
    declared, declared_counters = _run(scenario, "declared")

    assert declared.sequences == everything.sequences
    assert declared.events == everything.events
    assert declared.violations == everything.violations
    assert declared.ordering_anomalies == everything.ordering_anomalies
    assert declared_counters == everything_counters
    assert sum(
        v
        for k, v in everything_counters.items()
        if k.startswith("flexcast_ts_proposals_sent_total")
    ), "the scenario must put the authority to work"
