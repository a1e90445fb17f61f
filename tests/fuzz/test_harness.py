"""The fuzz harness itself: determinism, profiles, oracle wiring."""

import dataclasses

from repro.fuzz import (
    FuzzScenario,
    Submission,
    generate_scenario,
    run_scenario,
)
from repro.fuzz.profiles import PROFILES, apply_profile
from repro.fuzz.scenario import Crash


def small_scenario(**overrides):
    base = FuzzScenario(
        name="unit",
        order=(0, 1, 2),
        submissions=(
            Submission(at_ms=0.0, msg_id="m0", dst=(0, 1)),
            Submission(at_ms=5.0, msg_id="m1", dst=(1, 2)),
            Submission(at_ms=9.0, msg_id="m2", dst=(0, 2)),
            Submission(at_ms=12.0, msg_id="m3", dst=(0, 1, 2)),
        ),
        uniform_ms=10.0,
        jitter_ms=1.0,
        net_seed=7,
    )
    return dataclasses.replace(base, **overrides)


class TestDeterminism:
    def test_same_scenario_same_trace(self):
        a = run_scenario(small_scenario())
        b = run_scenario(small_scenario())
        assert a.sequences == b.sequences
        assert a.events == b.events

    def test_batch_ids_do_not_depend_on_ids_minted_before(self):
        # The batching client names its carriers itself (``<client>-b<n>``),
        # so a batched run repeats whatever ran between.
        scenario = apply_profile(generate_scenario(3, "crash-restart"), "crash-restart")
        scenario = dataclasses.replace(scenario, batch_window=16)
        first = run_scenario(scenario)
        run_scenario(dataclasses.replace(generate_scenario(4), batch_window=16))
        second = run_scenario(scenario)
        assert first.batches
        assert second.batches == first.batches
        assert second.sequences == first.sequences

    def test_generated_scenarios_are_pure_functions_of_seed(self):
        assert generate_scenario(5) == generate_scenario(5)
        assert generate_scenario(5) != generate_scenario(6)

    def test_scenario_json_roundtrip(self, tmp_path):
        scenario = apply_profile(generate_scenario(3, "crash-restart"), "crash-restart")
        path = tmp_path / "s.json"
        scenario.save(path)
        assert FuzzScenario.load(path) == scenario


class TestOracles:
    def test_clean_run_has_no_violations(self):
        result = run_scenario(small_scenario())
        assert result.ok, result.violations
        assert result.delivered == 9  # sum of |dst|

    def test_gc_flushes_are_injected_and_checked(self):
        result = run_scenario(small_scenario(gc_interval_ms=20.0))
        assert result.ok, result.violations
        assert result.submitted > 4  # flush multicasts counted too

    def test_crash_scenario_survivors_agree(self):
        scenario = small_scenario(
            submissions=tuple(
                Submission(at_ms=i * 8.0, msg_id=f"c{i}", dst=(0,))
                for i in range(20)
            ),
            replication_factor=3,
            crashes=(Crash(at_ms=45.0, replica=0),),
            expect_all_delivered=False,
        )
        result = run_scenario(scenario)
        assert result.ok, result.violations
        assert result.delivered >= 15

    def test_replicated_run_is_judged_by_the_whole_suite(self, substitute_groups):
        """One path, one suite: a delivery a replicated group swallows is
        reported by ``check_trace``, as on bare groups."""
        from repro.core.flexcast import FlexCastGroup

        class Swallows(FlexCastGroup):
            def deliver(self, message):
                if (self.group_id, message.msg_id) != (2, "m2"):
                    super().deliver(message)

        substitute_groups(Swallows)
        for replication_factor in (1, 3):
            result = run_scenario(small_scenario(replication_factor=replication_factor))
            kinds = {v.split("]")[0] + "]" for v in result.violations}
            assert "[validity/agreement]" in kinds, kinds
            assert result.sequences[0] == ["m0", "m2", "m3"]

    def test_loss_profile_keeps_safety_only(self):
        scenario = apply_profile(generate_scenario(1, "loss"), "loss")
        assert scenario.expect_all_delivered is False
        result = run_scenario(scenario)
        assert result.ok, result.violations

    def test_every_declared_profile_runs(self):
        for profile in PROFILES:
            scenario = apply_profile(generate_scenario(2, profile), profile)
            result = run_scenario(scenario)
            assert result.ok, (profile, result.violations)
