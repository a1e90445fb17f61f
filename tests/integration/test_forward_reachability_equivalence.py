"""Differential equivalence: forward reachability changes no delivery.

The delivery gate asks three reachability questions — does the message just
delivered precede an acked pivot (promise-maintenance re-ack), does another
undelivered message precede a pivot the candidate does not (pivot guard,
escape tick), does an undelivered message precede the candidate (dependency
check).  ISSUE 12 turned all three around: one forward walk from the
undelivered end (:meth:`History.reached_from`) instead of a backward walk
from the pivot or the candidate.  ``m in ancestors_of(t)`` and
``t in reached_from([m], [t])`` are the same statement, so nothing the
protocol does may move: not a delivery, not an ack.

:class:`BackwardGuard` (substituted for ``group.guard``) and
:class:`BackwardPredicates` carry the replaced code verbatim.  Every scenario
runs once with the production group and once with the reference; per-group
delivery sequences and *every* ``flexcast_*_total`` counter (``acks_sent``,
``reacks_sent``, ``pivot_guard_stalls``, ``guard_escapes`` among them, read
through the stats → ``/metrics`` bridge) must be equal.
"""

from collections import deque
from typing import Set

import pytest

from repro.core.flexcast import FlexCastGroup
from repro.core.message import reset_message_ids
from repro.core.pivot_guard import PivotGuard
from repro.experiments.config import flexcast_config
from repro.experiments.runner import run_experiment
from repro.fuzz import generate_scenario, run_scenario
from repro.fuzz.profiles import apply_profile
from repro.obs import Observability


class BackwardGuard(PivotGuard):
    """The guard's reachability predicates as they were at PR 11: one full
    backward ``ancestors_of`` set per acked pivot."""

    def reack_targets(self, msg_id, prior, history):
        return [
            pivot
            for pivot in prior
            if (
                pivot.msg_id in self.pivots
                and pivot.msg_id in history
                and msg_id in history.ancestors_of(pivot.msg_id)
            )
        ]

    def allows(self, msg_id, open_deps, history):
        if not self.pivots:
            return True
        if msg_id in self._exempt:
            return True
        blocking = open_deps
        if not blocking or (len(blocking) == 1 and msg_id in blocking):
            return True
        for pivot in self.pivots:
            if pivot not in history:
                continue
            ancestors = history.ancestors_of(pivot)
            if msg_id in ancestors:
                continue
            for blocked in blocking:
                if blocked != msg_id and blocked in ancestors:
                    return False
        return True

    def blocked_by(self, msg_id, candidates, history):
        """Escape tick: the old ``blockers_of(msg_id) <= blocked_heads`` is
        ``not (blockers_of(msg_id) & (undelivered - blocked_heads))``; the
        candidates passed in are that difference, a subset of the
        undelivered set the old code collected ``found`` from."""
        found: Set[str] = set()
        for pivot in self.pivots:
            if pivot not in history:
                continue
            ancestors = history.ancestors_of(pivot)
            if msg_id in ancestors:
                continue
            found.update(
                b for b in candidates if b != msg_id and b in ancestors
            )
        return bool(found)


class BackwardPredicates:
    """Builds the group around :class:`BackwardGuard` and answers the
    dependency check backward from the candidate, as at PR 11 (minus its
    per-epoch memo)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.guard = BackwardGuard()

    def _dependencies_satisfied(self, message):
        msg_id = message.msg_id
        blocking = self._undelivered_to_me
        if not blocking or (len(blocking) == 1 and msg_id in blocking):
            return True
        satisfied = True
        predecessors = self.history.predecessors
        queue = deque(predecessors.get(msg_id, ()))
        seen: Set[str] = set()
        while queue:
            node = queue.popleft()
            if node in seen:
                continue
            seen.add(node)
            if node in blocking and node != msg_id:
                satisfied = False
                break
            queue.extend(predecessors.get(node, ()))
        if not satisfied and not self._timestamped(message):
            satisfied = all(
                self.history.depends(later=node, earlier=msg_id)
                for node in self.history.ancestors_of(msg_id)
                if node in blocking and node != msg_id
            )
        return satisfied


class BackwardGroup(BackwardPredicates, FlexCastGroup):
    pass


@pytest.fixture
def backward(substitute_groups):
    """Make the protocol factories build reference groups while active."""
    return lambda: substitute_groups(BackwardGroup)


def _fuzz_run(scenario, exposure):
    reset_message_ids()  # batch ids draw from the process-wide counter
    obs = Observability()
    result = run_scenario(scenario, obs=obs, exposure=exposure)
    return result, obs.registry.snapshot()["counters"]


def _total(counters, stat):
    prefix = f"flexcast_{stat}_total"
    return sum(v for k, v in counters.items() if k.startswith(prefix))


#: ``exposure="none"`` sends every conflict through the guard; the harness
#: default exposes hot components to the timestamp authority and leaves the
#: guard the rest.
FUZZ_CASES = [
    (seed, profile, exposure)
    for profile in ("none", "loss", "dup", "crash-restart", "cluster-crash-restart")
    for seed in range(1, 9)
    for exposure in (None, "none")
    # ``crash-restart`` runs one replicated group: no exposure axis there.
    # ``cluster-crash-restart`` replicates every group of the base scenario.
    if not (profile == "crash-restart" and exposure == "none")
]


class TestFuzzScenariosAreBitIdentical:
    #: What the cases exercised, summed as they pass, so a generator change
    #: that stops building pivots fails loudly instead of proving nothing.
    exercised = {"reacks_sent": 0, "pivot_guard_stalls": 0, "guard_escapes": 0}
    cases_passed = 0

    @pytest.mark.parametrize("seed,profile,exposure", FUZZ_CASES)
    def test_sequences_and_counters_identical(
        self, seed, profile, exposure, backward
    ):
        scenario = apply_profile(generate_scenario(seed, profile), profile)
        if profile != "crash-restart":
            assert len(scenario.order) >= 3
        forward, forward_counters = _fuzz_run(scenario, exposure)
        backward()
        reference, reference_counters = _fuzz_run(scenario, exposure)
        assert forward.sequences == reference.sequences
        assert forward_counters == reference_counters
        assert forward.violations == reference.violations
        assert forward.ordering_anomalies == reference.ordering_anomalies
        assert forward.events == reference.events
        cls = type(self)
        cls.cases_passed += 1
        for stat in cls.exercised:
            cls.exercised[stat] += _total(forward_counters, stat)

    def test_the_cases_exercised_the_changed_code(self):
        if self.cases_passed < len(FUZZ_CASES):
            pytest.skip("needs every case above to have run and passed")
        assert all(self.exercised.values()), self.exercised


class TestGtpccChunkIsBitIdentical:
    def test_o1_chunk(self, backward):
        """The benchmark's own workload shape (12 groups, overlay O1),
        shortened: the reference is quadratic in the chunk length."""
        config = flexcast_config(
            overlay="O1",
            locality=0.90,
            num_clients=48,
            duration_ms=500,
            global_only=True,
            seed=12,
            record_deliveries=True,
        )
        reset_message_ids()
        forward = run_experiment(config)
        backward()
        reset_message_ids()
        reference = run_experiment(config)
        assert all(isinstance(g, BackwardGroup) for g in reference.groups.values())
        assert forward.groups.keys() == reference.groups.keys()
        for gid, group in forward.groups.items():
            assert forward.deliveries.sequence(gid) == reference.deliveries.sequence(gid)
            assert group.stats == reference.groups[gid].stats
        assert sum(g.stats["acks_sent"] for g in forward.groups.values()) > 0
