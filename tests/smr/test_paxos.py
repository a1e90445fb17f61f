"""Unit tests for the Paxos acceptor and the messages of a multi-Paxos log."""

import dataclasses

from repro.jsontext import json_text, json_value
from repro.smr.multipaxos import Commit
from repro.smr.paxos import (
    Accept,
    Accepted,
    Acceptor,
    Ballot,
    Nack,
    Prepare,
    Promise,
    ZERO_BALLOT,
)
from repro.storage import InMemoryStorage


def new_acceptor() -> Acceptor:
    """An acceptor on a WAL of its own, with the plain-JSON value codec."""
    return Acceptor("a", InMemoryStorage().wal("a.acceptor"), json_text, json_value)


class TestBallot:
    def test_total_order(self):
        assert Ballot(0, 1) < Ballot(1, 0)
        assert Ballot(1, 0) < Ballot(1, 2)
        assert Ballot(1, 2) <= Ballot(1, 2)
        assert ZERO_BALLOT < Ballot(0, 0)

    def test_next_increments_round(self):
        assert Ballot(3, 7).next() == Ballot(4, 7)


class TestAcceptor:
    def test_promises_higher_ballots(self):
        acceptor = new_acceptor()
        reply = acceptor.on_prepare(Prepare(instance=0, ballot=Ballot(1, 0)))
        assert isinstance(reply, Promise)
        assert reply.instance == 0 and reply.accepted == ()

    def test_nacks_lower_or_equal_ballots(self):
        acceptor = new_acceptor()
        acceptor.on_prepare(Prepare(instance=0, ballot=Ballot(5, 0)))
        for ballot in (Ballot(2, 0), Ballot(5, 0)):
            reply = acceptor.on_prepare(Prepare(instance=0, ballot=ballot))
            assert isinstance(reply, Nack)
            assert reply.promised == Ballot(5, 0)

    def test_accepts_at_promised_ballot(self):
        acceptor = new_acceptor()
        acceptor.on_prepare(Prepare(instance=0, ballot=Ballot(1, 0)))
        reply = acceptor.on_accept(Accept(instance=0, ballot=Ballot(1, 0), value="v"))
        assert reply == Accepted(instance=0, ballot=Ballot(1, 0), from_replica="a")
        assert acceptor.accepted_value(0) == "v"
        assert acceptor.accepted(0) == (Ballot(1, 0), "v")

    def test_rejects_accept_below_promise(self):
        acceptor = new_acceptor()
        acceptor.on_prepare(Prepare(instance=0, ballot=Ballot(5, 0)))
        reply = acceptor.on_accept(Accept(instance=0, ballot=Ballot(1, 0), value="v"))
        assert isinstance(reply, Nack)
        assert acceptor.accepted_value(0) is None

    def test_previously_accepted_value_reported_in_promise(self):
        acceptor = new_acceptor()
        acceptor.on_prepare(Prepare(instance=0, ballot=Ballot(1, 0)))
        acceptor.on_accept(Accept(instance=0, ballot=Ballot(1, 0), value="old"))
        promise = acceptor.on_prepare(Prepare(instance=0, ballot=Ballot(2, 1)))
        assert promise.accepted == ((0, Ballot(1, 0), "old"),)

    def test_the_promise_is_log_wide_and_accepted_values_per_instance(self):
        # Was test_instances_are_independent: promises no longer are (one
        # ballot covers the log — that is what makes phase 1 a once-per-
        # leadership cost); accepted values still are.
        acceptor = new_acceptor()
        acceptor.on_prepare(Prepare(instance=0, ballot=Ballot(9, 0)))
        reply = acceptor.on_prepare(Prepare(instance=1, ballot=Ballot(1, 0)))
        assert isinstance(reply, Nack) and reply.promised == Ballot(9, 0)
        assert isinstance(
            acceptor.on_accept(Accept(instance=7, ballot=Ballot(1, 0), value="v")), Nack
        )
        acceptor.on_accept(Accept(instance=0, ballot=Ballot(9, 0), value="zero"))
        acceptor.on_accept(Accept(instance=1, ballot=Ballot(9, 0), value="one"))
        assert acceptor.accepted_value(0) == "zero"
        assert acceptor.accepted_value(1) == "one"
        assert acceptor.accepted_value(2) is None

    def test_a_refused_prepare_or_accept_writes_nothing(self):
        wal = InMemoryStorage().wal("a.acceptor")
        acceptor = Acceptor("a", wal, json_text, json_value)
        acceptor.on_prepare(Prepare(instance=0, ballot=Ballot(5, 0)))
        assert isinstance(acceptor.on_prepare(Prepare(0, Ballot(4, 0))), Nack)
        assert isinstance(acceptor.on_accept(Accept(0, Ballot(4, 0), "v")), Nack)
        assert wal.records() == [["p", [5, 0]]]

    def test_an_accept_at_a_higher_ballot_is_also_a_promise(self):
        acceptor = new_acceptor()
        acceptor.on_accept(Accept(instance=3, ballot=Ballot(4, 1), value="v"))
        assert acceptor.promised == Ballot(4, 1)
        assert isinstance(
            acceptor.on_prepare(Prepare(instance=0, ballot=Ballot(4, 0))), Nack
        )


class TestPromiseWindow:
    """Phase 1 answers for every instance from a point on — the prepare's or
    the end of the replica's applied prefix, whichever is higher — so a
    promise is bounded by the un-applied window, not by the log."""

    def _acceptor_with(self, instances, ballot=Ballot(0, 0)):
        acceptor = new_acceptor()
        for instance in instances:
            acceptor.on_accept(Accept(instance, ballot, f"v{instance}"))
        return acceptor

    def test_reports_everything_accepted_from_the_prepared_instance_on(self):
        acceptor = self._acceptor_with([5, 2, 3, 9])
        promise = acceptor.on_prepare(Prepare(instance=3, ballot=Ballot(1, 1)))
        assert promise.instance == 3
        assert promise.accepted == (
            (3, Ballot(0, 0), "v3"),
            (5, Ballot(0, 0), "v5"),
            (9, Ballot(0, 0), "v9"),
        )

    def test_answers_from_the_applied_prefix_and_says_so(self):
        acceptor = self._acceptor_with(range(100))
        promise = acceptor.on_prepare(
            Prepare(instance=0, ballot=Ballot(1, 1)), applied=98
        )
        assert promise.instance == 98
        assert [instance for instance, _, _ in promise.accepted] == [98, 99]

    def test_a_re_accepted_instance_reports_its_latest_ballot(self):
        acceptor = self._acceptor_with([0])
        acceptor.on_accept(Accept(0, Ballot(2, 1), "newer"))
        promise = acceptor.on_prepare(Prepare(instance=0, ballot=Ballot(3, 0)))
        assert promise.accepted == ((0, Ballot(2, 1), "newer"),)


class TestValueCrossesTheWireOnce:
    """Was TestProposer: the per-instance proposer (its own phase 1, its
    promise quorum, its value adoption) is gone — a leadership's phase 1
    lives in ``MultiPaxosReplica`` and is tested in test_multipaxos.py.
    What remains to pin at this level is the shape of the phase-2 replies."""

    def test_accepted_and_commit_carry_no_value(self):
        for cls in (Accepted, Commit):
            names = {f.name for f in dataclasses.fields(cls)}
            assert "value" not in names
            assert {"instance", "ballot"} <= names

    def test_sizes_do_not_depend_on_the_value(self):
        big = "x" * 4096
        acceptor = new_acceptor()
        accepted = acceptor.on_accept(Accept(0, Ballot(0, 0), big))
        assert accepted.size_bytes() == 48
        assert Commit(instance=0, ballot=Ballot(0, 0)).size_bytes() == 48
        # ... and a promise's does: it is the one reply that carries values.
        promise = acceptor.on_prepare(Prepare(0, Ballot(1, 0)))
        assert promise.size_bytes() > 4096
