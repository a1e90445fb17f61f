"""Crash-restart profile: schema, determinism, recovery oracle, end-to-end runs."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.checker import check_recovery
from repro.fuzz import generate_scenario, run_scenario
from repro.fuzz.profiles import apply_profile
from repro.fuzz.scenario import Crash, FuzzScenario, Restart, Submission


# -------------------------------------------------------------------- scenario
class TestScenarioSchema:
    def test_restart_round_trips_through_json(self):
        scenario = FuzzScenario(
            name="s",
            order=(0,),
            submissions=(Submission(at_ms=1.0, msg_id="m0", dst=(0,)),),
            replication_factor=3,
            crashes=(),
            restarts=(Restart(at_ms=50.0, replica=1),),
            client_retries=4,
        )
        restored = FuzzScenario.from_dict(scenario.to_dict())
        assert restored == scenario
        assert restored.restarts == (Restart(at_ms=50.0, replica=1),)
        assert restored.client_retries == 4

    def test_old_schema_without_new_fields_deserializes_unchanged(self):
        # A pre-durability schedule has neither key; it must load with the
        # old defaults (no restarts, no retries) — committed regression
        # schedules replay forever.
        data = FuzzScenario(
            name="old",
            order=(0, 1),
            submissions=(Submission(at_ms=1.0, msg_id="m0", dst=(0,)),),
        ).to_dict()
        del data["restarts"]
        del data["client_retries"]
        restored = FuzzScenario.from_dict(data)
        assert restored.restarts == ()
        assert restored.client_retries == 0
        # Schedules from when the overlay could be switched mid-run carry a
        # "reconfigs" list: empty, it loads as if absent; scripted switches
        # cannot replay without the switch, so they are refused.
        assert FuzzScenario.from_dict({**data, "reconfigs": []}) == restored
        switching = {**data, "reconfigs": [{"at_ms": 5.0, "order": [1, 0]}]}
        with pytest.raises(ValueError, match="reconfigs"):
            FuzzScenario.from_dict(switching)

    def test_crash_and_restart_name_a_group_and_default_to_group_zero(self):
        scenario = FuzzScenario(
            name="s",
            order=(0, 1, 2),
            submissions=(Submission(at_ms=1.0, msg_id="m0", dst=(0, 2)),),
            replication_factor=3,
            crashes=(Crash(at_ms=10.0, replica=1, group=2),),
            restarts=(Restart(at_ms=50.0, replica=1, group=2),),
        )
        data = scenario.to_dict()
        assert FuzzScenario.from_dict(data) == scenario
        # A schedule committed before the field existed has no "group" key.
        del data["crashes"][0]["group"], data["restarts"][0]["group"]
        restored = FuzzScenario.from_dict(data)
        assert restored.crashes == (Crash(at_ms=10.0, replica=1, group=0),)
        assert restored.restarts == (Restart(at_ms=50.0, replica=1, group=0),)


class TestProfile:
    def test_profile_is_deterministic(self):
        base = generate_scenario(7)
        assert apply_profile(base, "crash-restart") == apply_profile(
            base, "crash-restart"
        )

    def test_crash_instant_shared_with_plain_crash_profile(self):
        # The crash time is drawn before the victim, so the same seed crashes
        # at the same virtual instant under both profiles (back-compat with
        # pre-existing crash seeds).
        base = generate_scenario(11)
        crash = apply_profile(base, "crash")
        crash_restart = apply_profile(base, "crash-restart")
        assert crash.crashes[0].at_ms == crash_restart.crashes[0].at_ms
        assert crash.crashes[0].replica == crash_restart.crashes[0].replica

    def test_every_crash_gets_a_later_restart(self):
        for seed in range(30):
            scenario = apply_profile(generate_scenario(seed), "crash-restart")
            assert len(scenario.restarts) == len(scenario.crashes)
            for crash, restart in zip(scenario.crashes, scenario.restarts):
                assert restart.replica == crash.replica
                assert restart.at_ms > crash.at_ms
            assert scenario.client_retries > 0
            assert scenario.expect_all_delivered

    def test_victim_varies_across_seeds(self):
        victims = {
            apply_profile(generate_scenario(seed), "crash-restart").crashes[0].replica
            for seed in range(40)
        }
        assert victims == {0, 1, 2}


class TestClusterProfile:
    """``cluster-crash`` / ``cluster-crash-restart``: the base scenario's
    groups and destination sets, 3 replicas each, a follower the victim."""

    def test_keeps_the_base_scenario_and_replicates_every_group(self):
        for seed in range(30):
            base = generate_scenario(seed)
            scenario = apply_profile(base, "cluster-crash-restart")
            assert scenario.order == base.order
            assert scenario.submissions == base.submissions
            assert scenario.gc_interval_ms == base.gc_interval_ms
            assert scenario.batch_window == base.batch_window
            assert scenario.replication_factor == 3
            assert scenario.client_retries > 0 and scenario.expect_all_delivered

    def test_the_victim_is_a_follower_of_a_seeded_group(self):
        victims = set()
        for seed in range(60):
            scenario = apply_profile(generate_scenario(seed), "cluster-crash-restart")
            assert len(scenario.restarts) == len(scenario.crashes)
            for crash, restart in zip(scenario.crashes, scenario.restarts):
                assert crash.group in scenario.order
                # Inter-group traffic is addressed to replica 0 of a group.
                assert crash.replica in (1, 2)
                assert (restart.group, restart.replica) == (crash.group, crash.replica)
                assert restart.at_ms > crash.at_ms
                victims.add((crash.group, crash.replica))
        assert len({group for group, _ in victims}) > 3
        assert {replica for _, replica in victims} == {1, 2}

    def test_crash_instant_shared_with_the_single_group_profile(self):
        base = generate_scenario(11)
        assert (
            apply_profile(base, "cluster-crash").crashes[0].at_ms
            == apply_profile(base, "crash").crashes[0].at_ms
        )

    def test_seeds_run_clean(self):
        restarted = 0
        for seed in (0, 1, 2, 4):
            scenario = apply_profile(generate_scenario(seed), "cluster-crash-restart")
            result = run_scenario(scenario)
            assert result.ok, (seed, result.violations[:3])
            flushes = result.submitted - len(scenario.submissions)
            assert result.delivered == sum(
                len(s.dst) for s in scenario.submissions
            ) + flushes * len(scenario.order)
            restarted += result.restarts
        assert restarted >= 4


# -------------------------------------------------------------- recovery oracle
class TestRecoveryOracle:
    def test_clean_recovery_passes(self):
        report = check_recovery(
            pre_crash=["a", "b"],
            rejoined=["a", "b", "c", "d"],
            reference=["a", "b", "c", "d"],
        )
        assert report.ok

    def test_duplicate_delivery_flagged(self):
        report = check_recovery(pre_crash=["a"], rejoined=["a", "b", "a"])
        assert [v.property_name for v in report.violations] == ["recovery-dup"]

    def test_lost_delivery_flagged(self):
        report = check_recovery(pre_crash=["a", "b"], rejoined=["a", "c"])
        assert "recovery-loss" in [v.property_name for v in report.violations]

    def test_reordered_prefix_flagged(self):
        report = check_recovery(pre_crash=["a", "b"], rejoined=["b", "a", "c"])
        assert [v.property_name for v in report.violations] == ["recovery-prefix"]

    def test_divergence_from_survivor_flagged(self):
        report = check_recovery(
            pre_crash=[], rejoined=["a", "x"], reference=["a", "b"]
        )
        assert "recovery-divergence" in [v.property_name for v in report.violations]

    def test_order_disagreement_with_survivor_flagged(self):
        report = check_recovery(
            pre_crash=[], rejoined=["b", "a"], reference=["a", "b"]
        )
        assert [v.property_name for v in report.violations] == ["recovery-order"]


# ------------------------------------------------------------------ end to end
class TestEndToEnd:
    def test_crash_restart_seeds_run_clean(self):
        # A small deterministic slice of the sweep; the CI sweep and the
        # nightly matrix run the wide version.
        for seed in range(6):
            scenario = apply_profile(generate_scenario(seed), "crash-restart")
            result = run_scenario(scenario)
            assert result.ok, (seed, [str(v) for v in result.violations])

    def test_double_crash_seed_runs_clean(self):
        # Find a seed whose schedule has two crash/restart pairs (the 34%
        # branch) and run it: exercises WAL reuse across incarnations.
        seed = next(
            s
            for s in range(100)
            if len(apply_profile(generate_scenario(s), "crash-restart").crashes) == 2
        )
        scenario = apply_profile(generate_scenario(seed), "crash-restart")
        result = run_scenario(scenario)
        assert result.ok, [str(v) for v in result.violations]

    def test_crash_runs_honour_the_batch_window(self):
        # Batches reach a replicated group like any request, are retried as
        # the unit they are, and stay all-or-nothing across a leader crash.
        seed = next(
            s
            for s in range(100)
            if (sc := apply_profile(generate_scenario(s), "crash")).batch_window > 1
            and sc.crashes[0].replica == 0
        )
        scenario = apply_profile(generate_scenario(seed), "crash")
        result = run_scenario(scenario)
        assert result.ok, result.violations[:3]
        assert result.batches
        assert result.delivered == len(scenario.submissions)

    def test_replicas_cannot_crash_where_none_are_hosted(self):
        base = generate_scenario(3)
        with pytest.raises(ValueError, match="replication_factor"):
            run_scenario(replace(base, crashes=(Crash(at_ms=5.0, replica=1),)))

    def test_restarted_replica_converges_with_survivors(self):
        scenario = apply_profile(generate_scenario(3), "crash-restart")
        result = run_scenario(scenario)
        assert result.ok, [str(v) for v in result.violations]
        # The run's oracle already compared the rejoined replica against a
        # survivor; spot-check the run really did restart someone.
        assert scenario.restarts
