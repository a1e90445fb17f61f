"""Regression: the single-shared-group 3-cycle schedule.

The committed JSON is the ddmin-shrunk form of the hypothesis-found witness
from PR 9: three messages whose destination sets pairwise-intersect in
exactly *one* group, ``h0-3 < h0-5 < h0-8 < h0-3`` under the old notif rule.
At 111 ms group 0 notifies group 5 about ``h0-8``, and 5 acks with nothing
open.  Group 3 then delivers ``h0-8`` after ``h0-5`` and, 5 being notified
already, does not notify it again; so group 4 delivers ``h0-8`` on 5's stale
ack, before ``h0-3``, while 5 later delivers ``h0-3`` before ``h0-5``.

A notified group now acks every notifier (DESIGN.md "Ordering: one ack per
notifier"), and the schedule is *strictly* clean.  :class:`OneAckPerGroup`
restores the old rule as a test-only subclass, and on it the schedule still
closes the cycle.
"""

from pathlib import Path
from typing import Set

import pytest

from repro.core.flexcast import FlexCastGroup
from repro.core.message import FlexCastNotif, Message, NotifiedPair
from repro.fuzz import FuzzScenario, run_scenario

SCHEDULES = Path(__file__).parent / "schedules"


class OneAckPerGroup(FlexCastGroup):
    """The old rule: a group some notifier already notified about a message
    is not notified again, so its first ack answers every notifier."""

    def send_notifs(self, message: Message) -> Set[NotifiedPair]:
        entry = self.pending.get(message.msg_id)
        notified = entry.notified if entry is not None else set()
        me = self.group_id
        for dest in self.routes[message.dst].notif_candidates:
            if dest in {g for g, _ in notified}:
                continue
            if not self.history.contains_message_to(dest):
                continue
            seq, delta = self._outgoing(dest)
            self.send(
                dest,
                FlexCastNotif(message=message, history=delta, from_group=me, seq=seq),
            )
            notified.add((dest, me))
            self.stats["notifs_sent"] += 1
        if entry is None and notified and not self._resolved(message.msg_id):
            self._pending_for(message).notified = notified
        return notified


@pytest.fixture(scope="module")
def shrunk():
    return FuzzScenario.load(SCHEDULES / "single_shared_group_3cycle.json")


class TestSingleSharedGroupCycleSchedule:
    def test_strictly_clean(self, shrunk):
        result = run_scenario(shrunk)
        assert result.ok, result.violations
        assert result.delivered == sum(len(s.dst) for s in shrunk.submissions)

    def test_one_ack_per_group_closes_the_cycle(self, shrunk, substitute_groups):
        substitute_groups(OneAckPerGroup)
        result = run_scenario(shrunk)
        assert any("[acyclic-order]" in v for v in result.violations)

    def test_schedule_is_single_shared_group_shaped(self, shrunk):
        """The committed shape class: some pair of destination sets
        intersects in exactly one group."""
        shapes = [set(s.dst) for s in shrunk.submissions if len(s.dst) > 1]
        assert any(
            len(a & b) == 1
            for i, a in enumerate(shapes)
            for b in shapes[i + 1 :]
        )
