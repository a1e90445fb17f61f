"""Numbered channels over whole fuzz runs.

Every ``msg``, ``ack`` and ``notif`` between groups carries the next number of
its channel, and a receiver takes only the next one
(:mod:`repro.core.flexcast`).  On reliable FIFO links that rule must be
invisible: every number a group sends is taken, none is counted as a gap, and
a reference group that takes every envelope whatever its number delivers the
same sequences through the same events.  On lossy links it is what keeps
order: a lost envelope stops its channel, so each receiver holds a prefix of
what its sender sent, and the run is as strictly clean as any other.
"""

from collections import defaultdict

import pytest

from repro.core.flexcast import FlexCastGroup
from repro.fuzz import generate_scenario, run_scenario
from repro.fuzz.profiles import apply_profile
from repro.obs import Observability

SEEDS = range(1, 9)

#: The profiles whose links lose nothing and that run more than one group
#: (``crash`` and ``crash-restart`` run one replicated group, so no channel).
#: ``dup`` repeats envelopes, and a repeated number is absorbed by the
#: channel, not counted.
RELIABLE = ("none", "dup", "cluster-crash", "cluster-crash-restart")
LOSS_SEEDS = range(1, 25)


class Recorded:
    """Keeps every group the run builds, restarted replicas included."""

    built = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        Recorded.built.append(self)


class RecordedGroup(Recorded, FlexCastGroup):
    pass


class UnnumberedGroup(FlexCastGroup):
    """Takes every envelope whatever its number: the links' own order."""

    def _in_order(self, source, seq):
        return True


@pytest.fixture
def recorded(substitute_groups):
    Recorded.built = []
    substitute_groups(RecordedGroup)
    return Recorded.built


def _run(seed, profile):
    scenario = apply_profile(generate_scenario(seed, profile), profile)
    obs = Observability()
    result = run_scenario(scenario, obs=obs)
    return result, obs.registry.snapshot()["counters"]


def _total(counters, stat):
    prefix = f"flexcast_{stat}_total"
    return sum(v for k, v in counters.items() if k.startswith(prefix))


def _channels(groups):
    """``{(sender, receiver): (highest number sent, highest taken)}`` over
    every replica of each group; the numbers only climb, so a replica that
    crashed and stayed down never raises either side."""
    sent, taken = defaultdict(int), defaultdict(int)
    for group in groups:
        for dest, n in group._sent.items():
            sent[group.group_id, dest] = max(sent[group.group_id, dest], n)
        for source, n in group._taken.items():
            taken[source, group.group_id] = max(taken[source, group.group_id], n)
    return {ch: (sent[ch], taken[ch]) for ch in set(sent) | set(taken)}


class TestReliableLinksTakeEveryNumber:
    @pytest.mark.parametrize("profile", RELIABLE)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_number_sent_is_taken_and_no_gap_counted(
        self, seed, profile, recorded
    ):
        result, counters = _run(seed, profile)
        assert result.violations == []
        assert recorded, "the run built no FlexCast group"
        assert _total(counters, "channel_gaps") == 0
        channels = _channels(recorded)
        assert channels, "the run opened no channel"
        for channel, (sent, taken) in channels.items():
            assert taken == sent, channel


class TestNumberingIsFreeOnReliableLinks:
    """The differential form: with nothing lost, taking only the next number
    and taking everything are one run.  ``dup`` is left out on purpose:
    there the reference hands each repeat to the protocol, which absorbs it
    on other paths, so its counters and timing differ."""

    @pytest.mark.parametrize(
        "profile", ("none", "cluster-crash", "cluster-crash-restart")
    )
    @pytest.mark.parametrize("seed", SEEDS)
    def test_sequences_events_and_counters_identical(
        self, seed, profile, substitute_groups
    ):
        numbered, numbered_counters = _run(seed, profile)
        substitute_groups(UnnumberedGroup)
        reference, reference_counters = _run(seed, profile)
        assert numbered.violations == reference.violations == []
        assert numbered.sequences == reference.sequences
        assert numbered.events == reference.events
        assert numbered_counters == reference_counters


class TestLossStopsChannels:
    #: Gaps counted and envelopes left untaken, summed as the seeds pass.
    stopped = {"gaps": 0, "untaken": 0}
    cases_passed = 0

    @pytest.mark.parametrize("seed", LOSS_SEEDS)
    def test_each_receiver_holds_a_prefix_and_order_holds(self, seed, recorded):
        result, counters = _run(seed, "loss")
        assert result.violations == []
        cls = type(self)
        for channel, (sent, taken) in _channels(recorded).items():
            assert taken <= sent, channel
            cls.stopped["untaken"] += sent - taken
        cls.stopped["gaps"] += _total(counters, "channel_gaps")
        cls.cases_passed += 1

    def test_the_seeds_stopped_channels(self):
        if self.cases_passed < len(LOSS_SEEDS):
            pytest.skip("needs every seed above to have run and passed")
        assert all(self.stopped.values()), self.stopped
