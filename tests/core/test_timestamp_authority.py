"""Unit tests for the Skeen timestamp ordering authority.

:class:`repro.core.timestamps.TimestampAuthority` is the ordering core of
the Distributed baseline (``protocols/skeen.py``), so these tests pin the
three behaviours it leans on: proposal **max-merge**, the **convoy wait**,
and **duplicate-propose** absorption (what makes envelope duplication and
re-submission harmless).
"""

import pytest

from repro.core.timestamps import PendingTimestamp, TimestampAuthority


@pytest.fixture
def authority():
    return TimestampAuthority(0)


class TestPropose:
    def test_first_contact_assigns_increasing_local_timestamps(self, authority):
        assert authority.propose("m1", {0, 1}) == 1
        assert authority.propose("m2", {0, 2}) == 2
        assert authority.clock == 2

    def test_own_proposal_recorded(self, authority):
        authority.propose("m1", {0, 1})
        assert authority.proposals_of("m1") == ((0, 1),)

    def test_duplicate_propose_refused(self, authority):
        first = authority.propose("m1", {0, 1})
        assert first == 1
        # Re-submissions / duplicated envelopes must not
        # mint a second proposal (that could retract a disseminated bound).
        assert authority.propose("m1", {0, 1}) is None
        assert authority.clock == 1
        assert authority.proposals_of("m1") == ((0, 1),)

    def test_propose_after_complete_refused(self, authority):
        authority.propose("m1", {0})
        authority.complete("m1")
        assert authority.propose("m1", {0}) is None
        assert not authority.is_pending("m1")

    def test_singleton_destination_decides_immediately(self, authority):
        authority.propose("m1", {0})
        assert authority.decided("m1")
        assert authority.final_timestamp("m1") == 1
        assert authority.next_deliverable() == "m1"


class TestMaxMerge:
    def test_final_timestamp_is_max_of_all_proposals(self, authority):
        authority.propose("m1", {0, 1, 2})  # local ts 1
        authority.observe("m1", 1, 7)
        assert not authority.decided("m1")
        authority.observe("m1", 2, 4)
        assert authority.decided("m1")
        assert authority.final_timestamp("m1") == 7

    def test_observe_advances_clock_lamport_rule(self, authority):
        authority.observe("mx", 1, 50)
        assert authority.clock == 50
        # The next proposal must exceed every timestamp ever seen.
        assert authority.propose("m1", {0, 1}) == 51

    def test_deciding_merges_final_into_clock(self, authority):
        authority.propose("m1", {0, 1})
        authority.observe("m1", 1, 30)
        assert authority.clock == 30
        assert authority.propose("m2", {0, 1}) == 31

    def test_duplicate_proposal_keeps_max(self, authority):
        authority.propose("m1", {0, 1, 2})
        authority.observe("m1", 1, 9)
        # A duplicated envelope re-delivers an older (smaller) proposal: the
        # recorded bound must never decrease.
        changed = authority.observe("m1", 1, 3)
        assert changed is False
        assert dict(authority.proposals_of("m1"))[1] == 9
        # A *larger* re-proposal (the proposer max-merged meanwhile) raises it.
        assert authority.observe("m1", 1, 12) is True
        assert dict(authority.proposals_of("m1"))[1] == 12

    def test_early_proposal_buffered_until_first_contact(self, authority):
        # The remote proposal races ahead of our own first contact.
        assert authority.observe("m1", 1, 5) is False
        assert not authority.is_pending("m1")
        authority.propose("m1", {0, 1})
        assert authority.decided("m1")
        assert authority.final_timestamp("m1") == 6  # local 6 > remote 5

    def test_early_duplicate_keeps_max(self, authority):
        authority.observe("m1", 1, 8)
        authority.observe("m1", 1, 2)  # stale duplicate, absorbed
        authority.propose("m1", {0, 1})
        assert dict(authority.proposals_of("m1"))[1] == 8

    def test_observe_for_completed_message_only_advances_clock(self, authority):
        authority.propose("m1", {0})
        authority.complete("m1")
        assert authority.observe("m1", 1, 40) is False
        assert authority.clock == 40
        assert not authority.is_pending("m1")


class TestConvoyWait:
    def test_decided_message_waits_for_undecided_smaller_key(self, authority):
        authority.propose("m1", {0, 1})  # local ts 1, undecided
        authority.propose("m2", {0, 2})  # local ts 2
        authority.observe("m2", 2, 2)    # m2 decided at 2
        # m1 could still decide below 2?  No — but its *key* (1, "m1") is
        # smaller than (2, "m2") and m1 is undecided, so m2 must wait.
        assert authority.decided("m2")
        assert not authority.deliverable("m2")
        assert authority.next_deliverable() is None
        assert authority.blocked_on("m2") == ["m1"]

    def test_convoy_releases_when_blocker_decides_higher(self, authority):
        authority.propose("m1", {0, 1})
        authority.propose("m2", {0, 2})
        authority.observe("m2", 2, 2)
        authority.observe("m1", 1, 7)  # m1 decides at 7 > 2
        assert authority.next_deliverable() == "m2"
        authority.complete("m2")
        assert authority.next_deliverable() == "m1"

    def test_delivery_order_follows_final_timestamp_not_arrival(self, authority):
        authority.propose("m1", {0, 1})
        authority.propose("m2", {0, 1})
        # Decisions arrive m2-first, but m1's final key is smaller.
        authority.observe("m2", 1, 9)
        authority.observe("m1", 1, 5)
        delivered = []
        while (nxt := authority.next_deliverable()) is not None:
            delivered.append(nxt)
            authority.complete(nxt)
        assert delivered == ["m1", "m2"]

    def test_timestamp_tie_broken_by_message_id(self, authority):
        a = TimestampAuthority(0)
        a.propose("mb", {0, 1})
        a.propose("ma", {0, 1})
        # Both decide with final timestamp 5: the id makes the key total.
        a.observe("mb", 1, 5)
        a.observe("ma", 1, 5)
        assert a.next_deliverable() == "ma"
        a.complete("ma")
        assert a.next_deliverable() == "mb"

    def test_undecided_smallest_key_blocks_everything(self, authority):
        authority.propose("m1", {0, 1})
        authority.propose("m2", {0, 1})
        authority.observe("m2", 1, 2)
        assert authority.next_deliverable() is None
        assert authority.deliverable("m1") is False  # undecided
        assert authority.deliverable("m2") is False  # undercut risk

    def test_effective_key_is_lower_bound_until_decided(self):
        entry = PendingTimestamp(msg_id="m1", dst=frozenset({0, 1}), local_timestamp=3)
        assert entry.effective_key() == (3, "m1")
        entry.final_timestamp = 11
        assert entry.effective_key() == (11, "m1")


class TestLifecycle:
    def test_complete_retires_pending_state(self, authority):
        authority.propose("m1", {0})
        authority.complete("m1")
        assert authority.pending_count() == 0
        assert authority.is_completed("m1")
        assert authority.final_timestamp("m1") is None

    def test_forget_drops_completed_memory_and_early_buffers(self, authority):
        authority.propose("m1", {0})
        authority.complete("m1")
        authority.observe("m2", 1, 4)  # early buffer for a never-proposed id
        authority.forget(["m1", "m2"])
        assert not authority.is_completed("m1")
        # After forget the caller's own forgotten-set is the only guard, so a
        # re-propose is accepted again (FlexCast gates on history.is_forgotten).
        assert authority.propose("m1", {0}) is not None
        # The early buffer for m2 is gone: proposing sees only the local ts.
        ts = authority.propose("m2", {0, 1})
        assert authority.proposals_of("m2") == ((0, ts),)

    def test_pending_count_tracks_live_entries(self, authority):
        authority.propose("m1", {0, 1})
        authority.propose("m2", {0, 1})
        assert authority.pending_count() == 2
        authority.observe("m1", 1, 1)
        authority.complete("m1")
        assert authority.pending_count() == 1
