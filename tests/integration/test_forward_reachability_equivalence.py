"""Differential equivalence: forward reachability changes no delivery.

The delivery gate asks one reachability question: does an undelivered
message precede the candidate (the dependency check)?  It is answered by one
forward walk from the undelivered end (:meth:`History.reached_from`) instead
of a backward walk from the candidate.  ``m in ancestors_of(t)`` and
``t in reached_from([m], [t])`` are the same statement, so nothing the
protocol does may move: not a delivery, not an ack.

:class:`BackwardPredicates` carries the backward walk.  Every scenario runs
once with the production group and once with the reference; per-group
delivery sequences and *every* ``flexcast_*_total`` counter (``acks_sent``
and ``notifs_sent`` among them, read through the stats → ``/metrics``
bridge) must be equal.
"""

from collections import deque
from typing import Set

import pytest

from repro.core.flexcast import FlexCastGroup
from repro.experiments.config import flexcast_config
from repro.experiments.runner import run_experiment
from repro.fuzz import generate_scenario, run_scenario
from repro.fuzz.profiles import PROFILES, apply_profile
from repro.obs import Observability


class BackwardPredicates:
    """Answers the dependency check backward from the candidate, as at PR 11
    (minus its per-epoch memo and poison tolerance)."""

    #: Times the reference answered "blocked", over every run of the module.
    blocked = 0

    def _dependencies_satisfied(self, message):
        msg_id = message.msg_id
        blocking = self._undelivered_to_me
        if not blocking or (len(blocking) == 1 and msg_id in blocking):
            return True
        satisfied = True
        # The history keeps successors only; the reference inverts them.
        predecessors = {}
        for before, after_set in self.history.successors.items():
            for after in after_set:
                predecessors.setdefault(after, []).append(before)
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
        BackwardPredicates.blocked += not satisfied
        return satisfied


class BackwardGroup(BackwardPredicates, FlexCastGroup):
    pass


@pytest.fixture
def backward(substitute_groups):
    """Make the protocol factories build reference groups while active."""
    return lambda: substitute_groups(BackwardGroup)


def _fuzz_run(scenario):
    obs = Observability()
    result = run_scenario(scenario, obs=obs)
    return result, obs.registry.snapshot()["counters"]


def _total(counters, stat):
    prefix = f"flexcast_{stat}_total"
    return sum(v for k, v in counters.items() if k.startswith(prefix))


#: ``crash`` and ``crash-restart`` run one replicated group; the
#: ``cluster-*`` profiles replicate every group of the base scenario.
FUZZ_CASES = [(seed, profile) for profile in PROFILES for seed in range(1, 13)]


class TestFuzzScenariosAreBitIdentical:
    #: What the cases exercised, summed as they pass, so a generator change
    #: that stops building notifs fails loudly instead of proving nothing.
    exercised = {"notifs_sent": 0, "acks_sent": 0}
    cases_passed = 0

    @pytest.mark.parametrize("seed,profile", FUZZ_CASES)
    def test_sequences_and_counters_identical(self, seed, profile, backward):
        scenario = apply_profile(generate_scenario(seed, profile), profile)
        if profile not in ("crash", "crash-restart"):
            assert len(scenario.order) >= 3
        forward, forward_counters = _fuzz_run(scenario)
        backward()
        reference, reference_counters = _fuzz_run(scenario)
        assert forward.sequences == reference.sequences
        assert forward_counters == reference_counters
        assert forward.violations == reference.violations
        assert forward.events == reference.events
        cls = type(self)
        cls.cases_passed += 1
        for stat in cls.exercised:
            cls.exercised[stat] += _total(forward_counters, stat)

    def test_the_cases_exercised_the_changed_code(self):
        if self.cases_passed < len(FUZZ_CASES):
            pytest.skip("needs every case above to have run and passed")
        assert all(self.exercised.values()), self.exercised
        assert BackwardPredicates.blocked > 0


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
        forward = run_experiment(config)
        backward()
        reference = run_experiment(config)
        assert all(isinstance(g, BackwardGroup) for g in reference.groups.values())
        assert forward.groups.keys() == reference.groups.keys()
        for gid, group in forward.groups.items():
            assert forward.deliveries.sequence(gid) == reference.deliveries.sequence(gid)
            assert group.stats == reference.groups[gid].stats
        assert sum(g.stats["acks_sent"] for g in forward.groups.values()) > 0
