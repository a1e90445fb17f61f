"""Unit tests for the bounded-exhaustive schedule explorer.

The headline regression here is the **component-closure** one: exhaustive
exploration of the shape ``{0,2}, {1,2}, {0,1,2}`` is what exposed that a
timestamp order scoped to the single-intersecting shapes alone was unsound —
a timestamp edge (e0 < e1) composed with two guard-ordered edges (e2 < e0 at
group 0, e1 < e2 at group 1) into a constraint cycle that wedged group 2
forever.  Both mechanisms are gone; the explorer runs the paper's protocol
alone, and this file pins the clean exhaustive exploration of that shape,
the committed schedule's replay and the explorer machinery that found it.
"""

import json
from pathlib import Path

import pytest

from repro.core.flexcast import FlexCastGroup
from repro.fuzz.explore import (
    ShapeCase,
    enumerate_shapes,
    execute,
    explore_shape,
)

SCHEDULES = Path(__file__).parent.parent / "regression" / "schedules"

TRIANGLE = ShapeCase(
    num_groups=3, destinations=((0, 1), (1, 2), (0, 2))
)
#: The shape whose exhaustive exploration caught the pre-component-closure
#: deadlock (see module docstring).
CLOSURE_REGRESSION = ShapeCase(
    num_groups=3, destinations=((0, 2), (1, 2), (0, 1, 2))
)


class TestExecute:
    def test_single_run_delivers_everything(self):
        outcome = execute(TRIANGLE)
        assert outcome.finished
        assert outcome.violations == []
        # Each of the three messages reaches both of its destinations.
        assert outcome.delivered == 6

    def test_choices_pin_the_interleaving(self):
        first = execute(TRIANGLE)
        again = execute(TRIANGLE, choices=first.path)
        assert again.path == first.path
        assert again.violations == first.violations

    def test_strict_choices_reject_divergence(self):
        first = execute(TRIANGLE)
        bogus = (("no-such-node", 0),) + tuple(first.path[1:])
        with pytest.raises(ValueError, match="not enabled"):
            execute(TRIANGLE, choices=bogus)

    def test_nonstrict_choices_degrade_to_first_enabled(self):
        first = execute(TRIANGLE)
        bogus = (("no-such-node", 0),) + tuple(first.path[1:])
        outcome = execute(TRIANGLE, choices=bogus, strict_choices=False)
        assert outcome.finished
        assert outcome.choices_honored == 0
        assert outcome.violations == []


class TestExploreShape:
    def test_triangle_exhaustive_and_clean(self):
        stats = explore_shape(TRIANGLE)
        assert not stats.truncated
        assert stats.ok, dict(stats.violations)
        assert stats.leaves > 1  # genuinely branched

    def test_component_closure_regression_shape_is_clean(self):
        stats = explore_shape(CLOSURE_REGRESSION)
        assert not stats.truncated
        assert stats.ok, dict(stats.violations)
        assert stats.leaves > 1

    def test_sleep_sets_preserve_verdict_and_shrink_tree(self):
        # Two messages keep the unpruned tree small enough to enumerate in
        # full; the triangle's unpruned tree takes minutes.
        case = ShapeCase(num_groups=3, destinations=((0, 1), (1, 2)))
        pruned = explore_shape(case)
        full = explore_shape(case, prune=False)
        assert pruned.ok == full.ok
        # The reduction must only fold commuting interleavings, never add.
        assert pruned.leaves <= full.leaves
        assert pruned.nodes < full.nodes

    def test_oracles_catch_a_broken_protocol(self, monkeypatch):
        # End-to-end oracle wiring: blackhole one message's delivery
        # condition so it wedges at every destination, and the explorer's
        # per-leaf oracles must flag the quiescent-but-undelivered state.
        orig = FlexCastGroup._can_deliver
        monkeypatch.setattr(
            FlexCastGroup,
            "_can_deliver",
            lambda self, message: message.msg_id != "e2" and orig(self, message),
        )
        stats = explore_shape(TRIANGLE, max_leaves=50)
        assert not stats.ok

    def test_budget_truncation_is_reported(self):
        stats = explore_shape(CLOSURE_REGRESSION, max_leaves=5)
        assert stats.truncated
        assert stats.leaves >= 5


class TestShapeEnumeration:
    def test_every_shape_has_a_single_shared_pair(self):
        for case in enumerate_shapes(3, 3):
            pairs = [
                (set(a), set(b))
                for i, a in enumerate(case.destinations)
                for b in case.destinations[i + 1 :]
            ]
            assert any(len(a & b) == 1 for a, b in pairs), case.label()

    def test_every_group_is_addressed(self):
        for case in enumerate_shapes(4, 4):
            used = set().union(*(set(d) for d in case.destinations))
            assert used == set(range(case.num_groups)), case.label()

    def test_all_shapes_flag_includes_covered_only_shapes(self):
        default = {c.destinations for c in enumerate_shapes(3, 3)}
        everything = {
            c.destinations
            for c in enumerate_shapes(3, 3, single_shared_only=False)
        }
        assert default < everything

    def test_three_by_three_count_is_stable(self):
        # The explore_smoke CI step sweeps every 3x3 shape (--all-shapes); a
        # change in the enumeration is a change in what "exhaustive 3x3"
        # means and must be conscious.
        assert len(list(enumerate_shapes(3, 3))) == 13
        assert len(list(enumerate_shapes(3, 3, single_shared_only=False))) == 26


class TestScheduleRoundtrip:
    def test_to_from_dict_roundtrip(self):
        outcome = execute(CLOSURE_REGRESSION)
        data = CLOSURE_REGRESSION.to_dict(outcome.path)
        case, choices = ShapeCase.from_dict(data)
        assert case == CLOSURE_REGRESSION
        assert tuple(choices) == outcome.path

    def test_committed_closure_schedule_replays_clean(self):
        data = json.loads(
            (SCHEDULES / "explore_claims_component_closure.json").read_text()
        )
        case, choices = ShapeCase.from_dict(data)
        outcome = execute(case, choices, strict_choices=False)
        assert outcome.finished
        assert outcome.violations == []
        # All three messages fully delivered (the old bug wedged group 2
        # with zero deliveries).
        assert outcome.delivered == 7
        # Today's traffic follows only the first 4 of the 14 recorded
        # choices; the rest of the run is first-enabled.  Pinned, so that
        # any further drift shows.  Every interleaving of the shape is
        # covered anyway: it is one of the 26 the exhaustive 3x3 sweep runs.
        assert len(choices) == 14 and outcome.choices_honored == 4
        assert case in enumerate_shapes(3, 3, single_shared_only=False)
