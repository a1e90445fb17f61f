"""Property tests over the single-shared-group conflict class (ISSUE 10).

The strategies (:mod:`repro.fuzz.strategies`) generate scenarios that
contain a cycle of message pairs meeting at exactly one group each — the
precondition of the plain-mode 3-cycle the conflict-scoped order claims
close.  Here hypothesis drives that class through all three delivery modes
and asserts ``strict_ok``: acyclic order is a *hard* property everywhere
now, so any anomaly is a failure, shrunk by hypothesis to a minimal
scenario.

Example counts follow the hypothesis profile (``tests/conftest.py``): the
default ``ci`` profile keeps this file fast; nightly runs set
``HYPOTHESIS_PROFILE=nightly`` for a 10x longer search.
"""

from hypothesis import given

from repro.fuzz import run_scenario
from repro.fuzz.strategies import (
    batched_single_shared_group_scenarios,
    single_shared_group_scenarios,
    single_shared_pairs,
)


class TestGeneratorShape:
    @given(scenario=single_shared_group_scenarios())
    def test_every_scenario_contains_a_single_shared_cycle(self, scenario):
        # At least a triangle's worth of exactly-one-group intersections.
        assert len(single_shared_pairs(scenario)) >= 3
        for sub in scenario.submissions:
            assert set(sub.dst) <= set(scenario.order)


class TestStrictOrderAcrossModes:
    @given(scenario=single_shared_group_scenarios())
    def test_declared_shapes_are_strictly_acyclic(self, scenario):
        result = run_scenario(scenario)
        assert result.strict_ok, result.violations + result.ordering_anomalies
        assert result.delivered == sum(
            len(s.dst) for s in scenario.submissions
        )

    @given(scenario=single_shared_group_scenarios())
    def test_everything_exposed_is_strictly_acyclic(self, scenario):
        result = run_scenario(scenario, exposure="all")
        assert result.strict_ok, result.violations + result.ordering_anomalies

    @given(scenario=batched_single_shared_group_scenarios())
    def test_batched_mode_is_strictly_acyclic_and_atomic(self, scenario):
        result = run_scenario(scenario)
        assert result.strict_ok, result.violations + result.ordering_anomalies
        assert result.delivered == sum(
            len(s.dst) for s in scenario.submissions
        )
