"""One phase 1 per leadership; a decided value on the wire and the disk once.

Deterministic simulator tests for what the replicated log promises since it
became a real Multi-Paxos: the exact steady-state cost of an instance, ballot
safety across a leader's restart, the value-free ``Commit``'s fallback, a
bounded phase 1 for a leader far behind, reference records in the commit log,
and (``TestEveryFaultPlacement``) every small leadership-change schedule.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

import repro.smr.multipaxos as mp
from repro.obs import MetricsRegistry
from repro.runtime.codec import encode_frame
from repro.sim.events import EventLoop
from repro.sim.latencies import LatencyMatrix
from repro.sim.network import Network
from repro.sim.transport import RecordingTransport, SimTransport
from repro.smr.multipaxos import (
    CatchupReply, CatchupRequest, Commit, MultiPaxosReplica,
)
from repro.smr.paxos import Accept, Ballot, Prepare
from repro.storage import InMemoryStorage

IDS = ["r0", "r1", "r2"]


class Cluster:
    """Three replicas on the simulator, each with its own WAL pair in one
    :class:`InMemoryStorage` — the disk that survives :meth:`crash`."""

    def __init__(self, durable=True):
        self.loop = EventLoop()
        matrix = LatencyMatrix(
            matrix=[[1.0 if a != b else 0.1 for b in range(3)] for a in range(3)],
            names=["s0", "s1", "s2"],
        )
        self.network = Network(self.loop, matrix)
        self.storage = InMemoryStorage() if durable else None
        self.applied = {rid: [] for rid in IDS}
        self.replicas = {}
        self.crashed = set()
        for rid in IDS:
            self.boot(rid)

    def boot(self, rid):
        """(Re)build ``rid`` from whatever its WALs hold and register it."""
        self.applied[rid] = []
        wals = {}
        if self.storage is not None:
            wals = {
                "acceptor_wal": self.storage.wal(f"{rid}.acceptor"),
                "log_wal": self.storage.wal(f"{rid}.log"),
            }
        replica = MultiPaxosReplica(
            rid, IDS, SimTransport(self.network, rid),
            apply=lambda inst, value, log=self.applied[rid]: log.append(value),
            **wals,
        )
        self.replicas[rid] = replica
        self.network.register(rid, site=IDS.index(rid), handler=replica.on_message)
        return replica

    def crash(self, rid):
        self.crashed.add(rid)
        self.network.unregister(rid)
        for other in self.live():
            self.replicas[other].mark_failed(rid)

    def restart(self, rid):
        self.crashed.discard(rid)
        replica = self.boot(rid)
        for other in self.crashed:
            replica.mark_failed(other)
        replica.rejoin()
        return replica

    def live(self):
        return [rid for rid in IDS if rid not in self.crashed]

    def records(self, name):
        return self.storage.wal(name).records()

    def run(self):
        return self.loop.run_until_idle(max_events=50_000)


def kib(tag):
    """A 1 KiB command that can be found again in a frame or a record."""
    return f"<{tag}>".ljust(1024, "x")


# ------------------------------------------------------- (a) steady-state cost
class TestSteadyStateCost:
    """ROADMAP "spend less below FlexCast" target (a), as a count that
    repeats exactly: after the leadership's first decision, an instance at
    replication 3 is 6 frames and 6 appends, and its value travels twice and
    is written three times."""

    def test_each_further_instance_costs_six_frames_and_six_appends(self):
        cluster = Cluster()
        frames = []
        cluster.network.add_delivery_observer(
            lambda time, src, dst, payload: frames.append(payload)
        )
        cluster.replicas["r0"].submit(kib("first"))
        cluster.run()
        assert Counter(type(f).__name__ for f in frames) == {
            "Prepare": 2, "Promise": 2, "Accept": 2, "Accepted": 2, "Commit": 2,
        }
        for i in range(5):
            del frames[:]
            appends = cluster.storage.stats["appends"]
            before = {name: len(cluster.records(name)) for name in cluster.storage.wal_names()}
            command = kib(f"cmd-{i}")
            cluster.replicas["r0"].submit(command)
            cluster.run()
            assert all(log[-1] == command for log in cluster.applied.values())

            assert Counter(type(f).__name__ for f in frames) == {
                "Accept": 2, "Accepted": 2, "Commit": 2,
            }
            marker = f"<cmd-{i}>".encode()
            carrying = [f for f in frames if marker in encode_frame("r0", f)]
            assert [type(f).__name__ for f in carrying] == ["Accept", "Accept"]

            assert cluster.storage.stats["appends"] - appends == 6
            written = {
                name: cluster.records(name)[before[name]:]
                for name in cluster.storage.wal_names()
            }
            instance = i + 1
            text = json.dumps(command).encode()  # a value is stored as its JSON text
            for rid in IDS:
                assert written[f"{rid}.acceptor"] == [["a", instance, [0, 0], text]]
                assert written[f"{rid}.log"] == [["c", instance]]
            holding = [
                record for records in written.values() for record in records
                if marker in repr(record).encode()
            ]
            assert len(holding) == 3

    def test_decided_and_accepted_value_are_one_object_on_every_replica(self):
        # A follower used to hold two decoded copies of every value (the
        # Accept's and the Commit's); now the decision *is* the accepted entry.
        # (With a commit log neither keeps an applied value: test_log_floor.)
        cluster = Cluster(durable=False)
        for i in range(3):
            cluster.replicas["r0"].submit({"cmd": i})
        cluster.run()
        for replica in cluster.replicas.values():
            for instance in range(3):
                decided = replica._decided[instance]
                assert decided is replica.acceptor.accepted_value(instance)

    def test_no_leader_counters_move_in_steady_state(self):
        cluster = Cluster(durable=False)
        registry = MetricsRegistry()
        cluster.replicas["r0"].register_metrics(registry)
        for i in range(10):
            cluster.replicas[IDS[i % 3]].submit(f"cmd-{i}")
        cluster.run()
        stats = cluster.replicas["r0"].stats
        assert stats["leaderships"] == 1 and stats["committed"] == 10
        assert stats["nacks"] == stats["ballot_retries"] == 0
        snapshot = registry.snapshot()
        assert snapshot["counters"]['smr_leaderships_total{replica="r0"}'] == 1
        assert snapshot["gauges"]['smr_ballot_round{replica="r0"}'] == 0
        assert cluster.replicas["r1"].ballot.round == -1  # never led


# ------------------------------------------------ (b) restarted-leader safety
class TestRestartedLeaderBallot:
    """r0 accepts a value, crashes before deciding it, restarts from its WALs
    and leads again with a different command.  Per-instance phase 1 used to
    hide a reused ``(0, 0)``; now only the ballot rule does: the new round is
    above the durable one, so the old value is recovered, never overwritten.
    """

    @pytest.mark.parametrize("accepts_delivered", [True, False])
    @pytest.mark.parametrize("successor_led", [True, False])
    def test_no_instance_decided_twice_and_round_exceeds_the_wal(
        self, accepts_delivered, successor_led
    ):
        cluster = Cluster()
        r0 = cluster.replicas["r0"]
        r0.submit("first")
        cluster.loop.run(until=2.5)  # phase 1 done, Accepts in flight
        assert r0.acceptor.accepted(0) == (Ballot(0, 0), "first")
        assert 0 not in r0._decided
        if not accepts_delivered:
            cluster.network.set_drop_filter(lambda src, dst, payload: src == "r0")
        # Crash r0; its successor may or may not get to lead before it is back.
        cluster.crashed.add("r0")
        cluster.network.unregister("r0")
        if successor_led:
            for rid in ("r1", "r2"):
                cluster.replicas[rid].mark_failed("r0")
        cluster.run()
        cluster.network.set_drop_filter(None)
        durable_round = max(
            record[2][0] if record[0] == "a" else record[-1][0]
            for record in cluster.records("r0.acceptor")
        )

        prepared = []
        cluster.network.add_delivery_observer(
            lambda time, src, dst, payload: prepared.append(payload.ballot)
            if src == "r0" and isinstance(payload, Prepare) else None
        )
        r0 = cluster.restart("r0")
        cluster.run()
        r0.submit("second")
        cluster.run()

        # Not one Prepare at or below what the WAL had promised: (0, 0) may
        # already carry "first" on some acceptor.
        assert prepared and all(b.round > durable_round for b in prepared)
        assert r0.ballot.round > durable_round
        for instance in range(3):
            values = {
                json.dumps(replica._decided[instance])
                for replica in cluster.replicas.values()
                if instance in replica._decided
            }
            assert len(values) <= 1, f"instance {instance} decided as {values}"
        logs = list(cluster.applied.values())
        assert logs[0] == logs[1] == logs[2]
        assert logs[0].count("first") <= 1 and logs[0].count("second") == 1
        if accepts_delivered or not successor_led:
            # Some live acceptor still held it: phase 1 must bring it back.
            assert logs[0] == ["first", "second"]


class TestFailoverBringsBackOnce:
    def test_forwarded_command_recovered_by_phase_one_is_not_proposed_again(self):
        # r1 forwarded "c" and kept a copy; r0 got it accepted everywhere and
        # crashed before deciding it.  Promoted, r1 finds "c" both in what
        # phase 1 brings back and in its own stash: one placement, not two.
        cluster = Cluster()
        cluster.replicas["r1"].submit("c")
        cluster.loop.run(until=4.5)  # forwarded, phase 1, Accepts delivered
        assert cluster.replicas["r2"].acceptor.accepted_value(0) == "c"
        assert not cluster.applied["r1"]
        cluster.crash("r0")
        cluster.run()
        assert cluster.applied["r1"] == cluster.applied["r2"] == ["c"]
        cluster.replicas["r2"].submit("d")
        cluster.run()
        assert cluster.applied["r1"] == cluster.applied["r2"] == ["c", "d"]
        assert cluster.replicas["r1"].stats["proposed"] == 1  # "d" only


# ------------------------------------------------ (c) Commit without its Accept
class TestCommitWithoutAccept:
    def test_follower_that_missed_the_accept_catches_up_from_the_sender(self):
        cluster = Cluster()
        cluster.replicas["r0"].submit("c0")
        cluster.run()
        cluster.network.set_drop_filter(
            lambda src, dst, payload: dst == "r2"
            and isinstance(payload, Accept) and payload.instance == 1
        )
        cluster.replicas["r0"].submit("c1")
        cluster.replicas["r0"].submit("c2")
        cluster.run()
        r2 = cluster.replicas["r2"]
        assert r2.acceptor.accepted(1) is None
        assert cluster.applied["r2"] == cluster.applied["r0"] == ["c0", "c1", "c2"]
        assert r2.stats["catchup_entries_applied"] >= 1
        # Learned by catch-up, not through the acceptor: a full record.
        assert cluster.records("r2.log") == [["c", 0], ["c", 2], ["c", 1, b'"c1"']]

    def test_an_entry_accepted_at_a_lower_ballot_is_not_the_decision(self):
        cluster = Cluster()
        r2 = cluster.replicas["r2"]
        # A deposed leader's value for instance 1 reached r2 only.
        r2.on_message("r1", Accept(instance=1, ballot=Ballot(0, 1), value="stale"))
        cluster.replicas["r0"].submit("c0")  # nacked by r2, retried at (1, 0)
        cluster.run()
        assert cluster.replicas["r0"].ballot == Ballot(1, 0)
        cluster.network.set_drop_filter(
            lambda src, dst, payload: dst == "r2" and isinstance(payload, Accept)
        )
        cluster.replicas["r0"].submit("c1")
        cluster.run()
        # r2's one accept of instance 1 is the stale one; what it decided
        # there came by catch-up, a full record.
        accepts = [r for r in cluster.records("r2.acceptor") if r[:2] == ["a", 1]]
        assert accepts == [["a", 1, [0, 1], b'"stale"']]
        assert ["c", 1, b'"c1"'] in cluster.records("r2.log")
        assert cluster.applied["r2"] == cluster.applied["r0"] == ["c0", "c1"]

    def test_a_commit_below_the_accepted_ballot_names_the_same_value(self):
        # Chosen at b => every later ballot carries the same value, so an
        # entry re-accepted at a higher ballot answers an older Commit.
        replica = MultiPaxosReplica(
            "r1", ["r0", "r1"], RecordingTransport(), apply=lambda instance, value: None
        )
        replica.on_message("r0", Accept(0, Ballot(3, 0), "v"))
        replica.on_message("r0", Commit(instance=0, ballot=Ballot(1, 0)))
        assert replica.log == ["v"]


# --------------------------------------- (d) reclaiming leadership far behind
class TestLeaderFarBehind:
    def test_promises_are_bounded_by_the_unapplied_window(self, monkeypatch):
        # CatchupReply chunks are counted in decisions, not bytes (unchanged
        # here): size them so that *every* frame is held to the same bound.
        monkeypatch.setattr(mp, "CATCHUP_CHUNK", 512)
        cluster = Cluster()
        cluster.replicas["r0"].submit("before")
        cluster.run()
        cluster.crash("r0")
        for i in range(5000):
            cluster.replicas["r1"].submit(kib(i))
            if i % 50 == 49:
                cluster.run()
        cluster.run()
        assert len(cluster.applied["r1"]) == 5001

        largest = Counter()

        def measure(time, src, dst, payload):
            size = len(encode_frame(src, payload))
            name = type(payload).__name__
            largest[name] = max(largest[name], size)

        cluster.network.add_delivery_observer(measure)
        # Leadership is handed back and claimed before r0 has asked anyone
        # for what it missed: phase 1 is what tells it.
        cluster.crashed.discard("r0")
        r0 = cluster.boot("r0")
        for rid in ("r1", "r2"):
            cluster.replicas[rid].mark_alive("r0")
        r0.submit("after")
        assert r0.applied_count == 1
        cluster.run()

        assert largest["Promise"] and largest["CatchupReply"]
        assert max(largest.values()) < 1024 * 1024, largest
        assert largest["Promise"] < 4096
        logs = list(cluster.applied.values())
        assert logs[0] == logs[1] == logs[2]
        assert len(logs[0]) == 5002 and logs[0][-1] == "after"
        # Fetched, never proposed into: r0 drove exactly one instance.
        assert r0.stats["committed"] == 1
        assert r0.stats["catchup_entries_applied"] >= 5000


# ------------------------------------------------- (e) dangling reference record
class TestReferenceRecords:
    def test_log_without_an_acceptor_wal_keeps_full_records(self):
        storage = InMemoryStorage()
        replica = MultiPaxosReplica(
            "r0", ["r0"], RecordingTransport(), apply=lambda instance, value: None,
            log_wal=storage.wal("log"),
        )
        replica.submit("solo")
        assert storage.wal("log").records() == [["c", 0, b'"solo"']]

    def test_references_without_the_acceptor_wal_are_refused_not_dropped(self):
        storage = InMemoryStorage()
        storage.wal("log").append(["c", 0])
        with pytest.raises(ValueError, match="acceptor WAL"):
            MultiPaxosReplica(
                "r0", ["r0"], RecordingTransport(), apply=lambda instance, value: None,
                log_wal=storage.wal("log"),
            )
        assert storage.wal("log").records() == [["c", 0]]

    def test_reference_whose_accept_was_cut_off_ends_the_replay_there(self):
        cluster = Cluster()
        for i in range(6):
            cluster.replicas["r0"].submit(f"cmd-{i}")
        cluster.run()
        cluster.crash("r2")
        # The two files fsync independently: the acceptor WAL lost its tail,
        # the commit log did not.
        acceptor_wal = cluster.storage.wal("r2.acceptor")
        kept = [r for r in acceptor_wal.records() if not (r[0] == "a" and r[1] >= 4)]
        acceptor_wal.reset(kept)
        assert cluster.records("r2.log") == [["c", i] for i in range(6)]

        restarted = cluster.boot("r2")
        assert cluster.applied["r2"] == [f"cmd-{i}" for i in range(4)]
        assert restarted.recovered_instances == 4
        # ... exactly as a torn tail: the dangling references are gone.
        assert cluster.records("r2.log") == [["c", i] for i in range(4)]

        cluster.crashed.discard("r2")
        restarted.rejoin()
        cluster.run()
        assert cluster.applied["r2"] == cluster.applied["r0"]
        assert cluster.records("r2.log")[4:] == [["c", 4, b'"cmd-4"'], ["c", 5, b'"cmd-5"']]

    def test_old_per_instance_promise_records_replay_as_their_maximum(self):
        from repro.smr.paxos import Acceptor

        storage = InMemoryStorage()
        wal = storage.wal("w")
        for record in (["p", 0, [3, 1]], ["p", 7, [1, 0]], ["a", 2, [2, 2], "v"]):
            wal.append(record)
        acceptor = Acceptor("r0", wal=storage.wal("w"))
        assert acceptor.promised == Ballot(3, 1)
        assert acceptor.accepted(2) == (Ballot(2, 2), "v")


# ----------------------------------------------- satellite: catch-up serving
class _CountingDict(dict):
    def __init__(self, *args):
        super().__init__(*args)
        self.lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)

    def __contains__(self, key):
        self.lookups += 1
        return super().__contains__(key)

    def items(self):  # the whole-dict walk the handler used to sort
        self.lookups += len(self)
        return super().items()


class TestCatchupServingCost:
    def _replica_with_log(self, n):
        outbox = RecordingTransport()
        replica = MultiPaxosReplica(
            "r1", ["r0", "r1"], outbox, apply=lambda instance, value: None
        )
        replica.on_message(
            "r0", CatchupReply(entries=tuple((i, f"v{i}") for i in range(n)))
        )
        replica._decided = _CountingDict(replica._decided)
        return replica, outbox

    def test_a_suffix_request_touches_only_the_suffix(self):
        n, k = 20_000, 19_900
        replica, outbox = self._replica_with_log(n)
        replica.on_message("rx", CatchupRequest(from_instance=k, from_replica="rx"))
        served = [entry for _, reply in outbox.sent for entry in reply.entries]
        assert served == [(i, f"v{i}") for i in range(k, n)]
        assert replica._decided.lookups <= 2 * (n - k)

    def test_holes_above_the_applied_prefix_are_skipped_not_invented(self):
        replica, outbox = self._replica_with_log(0)
        replica.on_message("r0", CatchupReply(entries=((2, "v2"), (5, "v5"))))
        replica.on_message("rx", CatchupRequest(from_instance=0, from_replica="rx"))
        (reply,) = [payload for _, payload in outbox.sent]
        assert reply.entries == ((2, "v2"), (5, "v5"))
        assert replica.stats["catchup_entries_sent"] == 2

    def test_nothing_pending_means_no_rebuild_per_decision(self):
        replica, _ = self._replica_with_log(0)
        pending = replica._pending_commands
        replica.on_message("r0", CatchupReply(entries=((0, "v0"),)))
        assert replica._pending_commands is pending  # not rebuilt when empty
        replica._pending_commands.extend(["mine", "other"])
        replica.on_message("r0", CatchupReply(entries=((1, "mine"),)))
        assert list(replica._pending_commands) == ["other"]


# ------------------------------------- (f) every small leadership-change schedule
FAULTS = ("crash-leader", "crash-follower", "restart", "suspect")
#: (virtual ms, replica it is handed to): one at the leader, two forwarded,
#: spread so that each lands in a different phase of the one before it.
SUBMISSIONS = ((0.0, "r0", "c0"), (1.5, "r1", "c1"), (3.2, "r2", "c2"))


class FaultRun(Cluster):
    """One 3-replica, 3-command run with faults placed at delivery boundaries
    (boundary ``k`` = after the ``k``-th message has been handled)."""

    def __init__(self):
        super().__init__()
        self.deliveries = 0
        self.network.add_delivery_observer(self._count)
        #: command -> replicas whose crash could have taken it along: the one
        #: it was handed to and the one that led at that moment.
        self.holders = {}
        self.handed = {}
        self.resubmitted = Counter()
        self.crashed_after = {command: set() for _, _, command in SUBMISSIONS}
        self.noop = False
        self.lost_majority = False
        self.crashed_at = {}
        self.rebooting = {}
        for at, rid, command in SUBMISSIONS:
            self.loop.schedule_at(at, lambda rid=rid, c=command: self._submit(rid, c))

    def _count(self, time, src, dst, payload):
        self.deliveries += 1

    def _submit(self, rid, command):
        self.holders[command] = {rid, self.live()[0]}
        self.handed[command] = rid
        if rid in self.crashed:
            self.crashed_after[command].add(rid)  # nobody to hand it to
        else:
            self.replicas[rid].submit(command)

    def advance(self, boundary=None, budget=600):
        """Run to ``boundary`` deliveries (or idleness); False if neither
        came within ``budget`` events — a duel that does not settle."""
        for _ in range(budget):
            if boundary is not None and self.deliveries >= boundary:
                return True
            if not self.loop.step():
                return True
        return False

    def inject(self, fault):
        was_leader = {rid: self.replicas[rid].is_leader for rid in self.live()}
        self._inject(fault)
        # Fail-over is at-least-once: a follower promoted while a command it
        # forwarded is still undecided proposes it again, and the old
        # leader's placement of it may resurface later.  Each such promotion
        # counts as one more submission of that command.
        for rid in self.live():
            if self.replicas[rid].is_leader and not was_leader[rid]:
                for command, holders in self.holders.items():
                    if self.handed[command] == rid and command not in self.applied[rid]:
                        self.resubmitted[command] += 1

    def _inject(self, fault):
        live = self.live()
        if fault == "crash-leader" and len(live) > 1:
            victim = live[0]
        elif fault == "crash-follower" and len(live) > 1:
            victim = live[-1]
        elif fault == "restart" and self.crashed - set(self.rebooting):
            self.reboot(min(self.crashed - set(self.rebooting)))
            return
        elif fault == "suspect" and len(live) > 1 and live[0] in self.replicas[live[1]].alive:
            # The first follower wrongly suspects the leader: two leaders.
            self.replicas[live[1]].mark_failed(live[0])
            return
        else:
            self.noop = True  # nothing to do here: same run as without it
            return
        for command, holders in self.holders.items():
            if victim in holders:
                self.crashed_after[command].add(victim)
        self.crash(victim)
        self.crashed_at[victim] = self.loop.now
        self.lost_majority |= len(self.live()) < 2

    def reboot(self, rid):
        """Restart ``rid`` once everything sent to its dead incarnation is
        gone: a connection does not outlive the process at its other end (a
        frame that did would be a second submission of what it carries)."""
        def up():
            del self.rebooting[rid]
            self.restart(rid)

        self.rebooting[rid] = self.loop.schedule_at(
            max(self.loop.now, self.crashed_at[rid] + 1.05), up
        )

    def stabilise(self):
        """The failure detector becomes accurate and every replica recovers."""
        for rid in sorted(self.crashed - set(self.rebooting)):
            self.reboot(rid)
        while self.rebooting:
            self.loop.step()
        for replica in self.replicas.values():
            for rid in IDS:
                replica.mark_alive(rid)


def check_schedule(placements):
    """Run one schedule and assert the oracle; returns ``(deliveries before
    stabilisation, whether a fault had nothing to act on)``."""
    run = FaultRun()
    for boundary, fault in placements:
        run.advance(boundary)
        run.inject(fault)
    if run.noop:
        return run.deliveries, True
    run.advance()
    deliveries = run.deliveries
    run.stabilise()
    settled = run.advance()
    commands = [command for _, _, command in SUBMISSIONS]
    label = f"{placements}: {run.applied}"

    def safety(retried=()):
        # Agreement, integrity: one log, nothing invented, nothing twice
        # that was not submitted twice.
        longest = max(run.applied.values(), key=len)
        for log in run.applied.values():
            assert log == longest[: len(log)], label
        assert set(longest) <= set(commands), label
        for command in commands:
            submissions = 1 + run.resubmitted[command] + (command in retried)
            assert longest.count(command) <= submissions, label
        return longest

    longest = safety()
    if run.lost_majority:
        # Nothing re-sends a Prepare or an Accept that went to nobody, so a
        # group that lost its majority may stay wedged (ROADMAP, correctness).
        return deliveries, False
    assert settled, f"{placements}: did not settle once stabilised"
    # Validity without a client retry: a command whose holders all stayed up
    # was submitted to a live majority and must be applied.
    for command in commands:
        if not run.crashed_after[command]:
            assert command in longest, f"{command} lost; {label}"
    # The rest may have died with a holder; the client asks once more.
    retried = [command for command in commands if command not in longest]
    for command in retried:
        run.replicas["r0"].submit(command)
    assert run.advance(), label
    longest = safety(retried)
    assert all(log == longest for log in run.applied.values()), label
    assert sorted(set(longest)) == commands, label
    return deliveries, False


class TestEveryFaultPlacement:
    """CADP-style exhaustion of the one new piece of state, a leadership:
    every single fault from {leader crash, follower crash, restart of a
    crashed replica, false suspicion} and every ordered pair of them, at
    every message-delivery boundary of a 3-replica, 3-command run."""

    def test_every_single_fault_and_ordered_pair_at_every_boundary(self):
        baseline, _ = check_schedule(())
        schedules = 1
        for first in range(baseline + 1):
            for fault in FAULTS:
                length, noop = check_schedule(((first, fault),))
                if noop:
                    continue
                schedules += 1
                # (a duel that never settles has no last boundary: place the
                # second fault within one fault-free run's length of the first)
                for second in range(first, min(length, first + baseline) + 1):
                    for other in FAULTS:
                        _, noop = check_schedule(((first, fault), (second, other)))
                        schedules += not noop
        print(f"fault-placement schedules checked: {schedules}")
        assert schedules > 1000
