"""With a commit log, a replica keeps only the un-applied window in memory.

An applied instance lives in the two WALs alone: ``_decided`` and the
acceptor let it go as it is applied, and catch-up, ``log`` and a restart read
it back from the files.  Pinned here: the window over a long run, a rejoiner
caught up from the survivors' files, every replica of the group restarted at
once (the files are the only copy, so nothing may rewrite them), and what a
late reply or a late ``Accept`` for an applied instance may not bring back.
"""

from __future__ import annotations

from test_replica_turns import Deployment, request

from repro.checker.recovery import check_recovery
from repro.obs import MetricsRegistry
from repro.smr import multipaxos
from repro.smr.multipaxos import CatchupReply, Commit
from repro.smr.paxos import Accept, Accepted, Ballot, Prepare
from repro.storage import InMemoryStorage

#: Instances a long run applies: one request per turn, one turn per instance.
LONG = 520


def drive(d, ids):
    """One request per turn, so one log instance each."""
    for msg_id in ids:
        d.send(request(msg_id))
        d.run()


def applied_in_memory(smr):
    """Instances at or below the applied prefix that memory still holds."""
    floor = smr._applied_up_to
    return [i for i in smr._decided if i <= floor] + [
        i for i in smr.acceptor._accepted if i <= floor
    ]


class TestTheUnappliedWindow:
    def test_a_long_run_leaves_nothing_applied_in_memory(self):
        d = Deployment(storage=InMemoryStorage())
        registry = MetricsRegistry()
        for replica in d.replicas:
            replica.smr.register_metrics(registry)
        drive(d, [f"m{i}" for i in range(LONG)])
        gauges = registry.snapshot()["gauges"]
        for replica in d.replicas:
            smr = replica.smr
            assert smr.applied_count == LONG
            assert applied_in_memory(smr) == []
            label = f'{{replica="{replica.replica_id}"}}'
            assert gauges[f"smr_decided_instances{label}"] == LONG
            assert gauges[f"smr_decided_in_memory{label}"] == 0
        # ... yet the log is all there, read back from the files.
        logged = [turn.entries[0].envelope.message.msg_id for turn in d.replicas[2].smr.log]
        assert logged == [f"m{i}" for i in range(LONG)]

    def test_without_a_commit_log_every_decided_value_stays(self):
        d = Deployment()
        registry = MetricsRegistry()
        d.replicas[1].smr.register_metrics(registry)
        drive(d, [f"m{i}" for i in range(10)])
        smr = d.replicas[1].smr
        assert sorted(smr._decided) == list(range(10))
        gauges = registry.snapshot()["gauges"]
        label = f'{{replica="{smr.replica_id}"}}'
        assert gauges[f"smr_decided_instances{label}"] == 10
        assert gauges[f"smr_decided_in_memory{label}"] == 10


class TestReadBackFromTheWals:
    def test_a_rejoiner_catches_up_from_the_survivors_files_alone(self, monkeypatch):
        # Several chunks from each survivor, not one.
        monkeypatch.setattr(multipaxos, "CATCHUP_CHUNK", 100)
        storage = InMemoryStorage()
        d = Deployment(storage=storage)
        d.warm_up()
        pre_crash = list(d.replicas[2].local_deliveries)
        d.group.crash_replica(2, d.network)
        drive(d, [f"m{i}" for i in range(LONG)])
        for survivor in d.replicas[:2]:
            assert survivor.smr._decided == {} and survivor.smr.acceptor._accepted == {}

        replies = []
        d.network.add_delivery_observer(
            lambda time, src, dst, payload: replies.append(payload)
            if isinstance(payload, CatchupReply) else None
        )
        rejoiner = d.group.restart_replica(2, d.network)
        d.run()
        assert len(replies) >= 2 * LONG // 100
        assert max(len(reply.entries) for reply in replies) == 100
        leader = d.replicas[0]
        check_recovery(
            pre_crash, rejoiner.local_deliveries, reference=leader.local_deliveries,
            replica=rejoiner.replica_id,
        ).raise_if_failed()
        assert len(rejoiner.local_deliveries) == LONG + 1
        assert rejoiner.delivery_hash.hexdigest() == leader.delivery_hash.hexdigest()
        # Learned by catch-up: full records, each instance once.
        learned = storage.wal(f"{rejoiner.replica_id}.log").records()
        assert [r[1] for r in learned] == list(range(LONG + 1))
        assert all(len(r) == 3 for r in learned[1:])
        assert applied_in_memory(rejoiner.smr) == []

    def test_every_replica_restarted_at_once_replays_the_whole_prefix(self):
        storage = InMemoryStorage()
        d = Deployment(storage=storage)
        drive(d, [f"m{i}" for i in range(LONG)])
        # Leadership churn: many promise records behind the accepts.
        for round_no in range(1, 100):
            d.replicas[2].smr.on_message(
                d.replicas[1].replica_id, Prepare(LONG, Ballot(round_no, 1))
            )
        before = [list(replica.local_deliveries) for replica in d.replicas]
        d.group.close()

        again = Deployment(storage=storage)
        for replica, delivered in zip(again.replicas, before):
            assert replica.local_deliveries == delivered and len(delivered) == LONG
            assert replica.smr.recovered_instances == LONG
            assert applied_in_memory(replica.smr) == []
        again.send(request("after"))
        again.run()
        assert {tuple(r.local_deliveries)[-2:] for r in again.replicas} == {
            (f"m{LONG - 1}", "after")
        }


class TestLateMessagesForAnAppliedInstance:
    def setup_method(self):
        self.storage = InMemoryStorage()
        self.d = Deployment(storage=self.storage)
        drive(self.d, ["m0", "m1", "m2"])
        self.follower = self.d.replicas[1].smr
        self.leader_id = self.d.replicas[0].replica_id
        self.value = self.follower.log[1]

    def wal(self, kind):
        return self.storage.wal(f"{self.follower.replica_id}.{kind}").records()

    def test_a_late_catchup_reply_writes_nothing_and_keeps_nothing(self):
        log = self.wal("log")
        self.follower.on_message(self.leader_id, CatchupReply(entries=((1, self.value),)))
        self.follower.on_message(self.leader_id, Commit(instance=1, ballot=Ballot(0, 0)))
        assert self.wal("log") == log
        assert self.follower._decided == {}
        assert self.follower.stats["catchup_entries_applied"] == 1

    def test_a_late_accept_is_answered_and_written_but_not_kept(self):
        sent = []
        self.follower.transport.send = lambda dst, payload: sent.append(payload)
        accept = Accept(instance=1, ballot=Ballot(5, 0), value=self.value)
        self.follower.on_message(self.leader_id, accept)
        assert sent == [Accepted(1, Ballot(5, 0), from_replica=self.follower.replica_id)]
        assert self.wal("acceptor")[-1][:3] == ["a", 1, [5, 0]]
        assert applied_in_memory(self.follower) == []
        # The last accept is what the commit log's reference now names.
        assert self.follower.log[1] == self.value
