"""Differential equivalence: a declared universe is invisible off the hot path.

Declaring the shape universe (ISSUE 10) must cost nothing — not even a
changed tiebreak — for workloads that cannot form a single-shared-group
pair: only conflict components containing a pair of declared shapes
intersecting in exactly one group are exposed, and a scenario with no
such pair has no hot component, no timestamp authority, and therefore the
*identical* delivery schedule as the protocol with nothing exposed.

These tests pin that as a bit-identity: per-group delivery sequences from
``exposure="none"`` and the (declared-universe) harness default must be
equal, element for element.  The harness adds the all-groups shape (GC
flushes) to the declared universe, so the scenarios below are built
so no shape pair — including against the full-order shape — meets at
exactly one group.
"""

import pytest

from repro.core.timestamps import Exposure
from repro.fuzz import FuzzScenario, Submission, run_scenario
from repro.fuzz.harness import scenario_conflict_shapes
from repro.fuzz.strategies import single_shared_pairs


def _scenario(name, order, dsts, **kwargs):
    submissions = tuple(
        Submission(at_ms=round(3.7 * i, 1), msg_id=f"{name}-{i}", dst=dst)
        for i, dst in enumerate(dsts)
    )
    return FuzzScenario(
        name=name, order=order, submissions=submissions, **kwargs
    )


#: Workloads whose destination shapes pairwise intersect in 0 or >= 2 groups
#: (the full-order shape included): disjoint traffic, nested shapes, and
#: repeated identical shapes — the common production patterns.
COLD_SCENARIOS = [
    _scenario(
        "disjoint-pairs",
        (0, 1, 2, 3),
        [(0, 1), (2, 3), (0, 1), (2, 3), (0, 1), (2, 3)],
    ),
    _scenario(
        "nested-shapes",
        (0, 1, 2, 3),
        [(0, 1), (0, 1, 2, 3), (2, 3), (0, 1), (0, 1, 2, 3), (2, 3)],
    ),
    _scenario(
        "identical-shapes",
        (0, 1, 2),
        [(0, 1, 2)] * 5,
        jitter_ms=4.0,
        net_seed=11,
    ),
    _scenario(
        "gc-flush-traffic",
        (0, 1, 2, 3),
        [(0, 1), (0, 1, 2, 3), (0, 1)] * 3,
        gc_interval_ms=25.0,
    ),
]


@pytest.mark.parametrize(
    "scenario", COLD_SCENARIOS, ids=lambda s: s.name
)
class TestColdWorkloadsAreBitIdentical:
    def test_no_single_shared_pair_by_construction(self, scenario):
        assert single_shared_pairs(scenario) == []

    def test_no_hot_component(self, scenario):
        assert not Exposure.declared(scenario_conflict_shapes(scenario))

    def test_sequences_identical_with_and_without_claims(self, scenario):
        with_claims = run_scenario(scenario)
        without = run_scenario(scenario, exposure="none")
        assert with_claims.strict_ok, (
            with_claims.violations + with_claims.ordering_anomalies
        )
        assert without.strict_ok
        assert with_claims.sequences == without.sequences
        assert with_claims.delivered == without.delivered


class TestHotWorkloadStaysDifferent:
    def test_single_shared_pair_activates_the_authority(self):
        """Control for the suite above: with a single-shared pair present
        the hot component is non-empty, so the bit-identity tests really
        are exercising the cold path and not a disabled feature."""
        scenario = _scenario(
            "hot-control", (0, 1, 2), [(0, 1), (1, 2), (0, 2)]
        )
        assert Exposure.declared(scenario_conflict_shapes(scenario))
