"""Tests for the multi-Paxos replicated log and replicated groups."""

import pytest

from repro.core.flexcast import FlexCastProtocol
from repro.core.message import ClientRequest, Message
from repro.overlay.cdag import CDagOverlay
from repro.protocols.base import RecordingSink
from repro.sim.events import EventLoop
from repro.sim.latencies import LatencyMatrix
from repro.sim.network import Network
from repro.sim.transport import RecordingTransport, SimTransport
from repro.obs import MetricsRegistry
from repro.smr.multipaxos import CatchupReply, MultiPaxosReplica
from repro.smr.paxos import Accept, Ballot
from repro.smr.replica import ReplicatedGroup
from repro.storage import InMemoryStorage


def deploy_replicas(n=3):
    loop = EventLoop()
    size = max(n, 2)
    matrix = LatencyMatrix(
        matrix=[[1.0 if a != b else 0.1 for b in range(size)] for a in range(size)],
        names=[f"s{i}" for i in range(size)],
    )
    network = Network(loop, matrix)
    ids = [f"r{i}" for i in range(n)]
    applied = {rid: [] for rid in ids}
    replicas = {}
    for i, rid in enumerate(ids):
        replica = MultiPaxosReplica(
            rid, ids, SimTransport(network, rid),
            apply=lambda inst, value, rid=rid: applied[rid].append(value),
            storage=InMemoryStorage(),
        )
        replicas[rid] = replica
        network.register(rid, site=min(i, size - 1), handler=replica.on_message)
    return loop, network, replicas, applied


class TestReplication:
    def test_leader_is_lowest_id(self):
        _, _, replicas, _ = deploy_replicas()
        assert replicas["r0"].is_leader
        assert not replicas["r1"].is_leader
        assert replicas["r1"].leader == "r0"

    def test_commands_applied_in_the_same_order_everywhere(self):
        loop, _, replicas, applied = deploy_replicas()
        for i in range(5):
            replicas[f"r{i % 3}"].submit(f"cmd-{i}")
        loop.run_until_idle()
        logs = list(applied.values())
        assert all(log == logs[0] for log in logs)
        assert sorted(logs[0]) == sorted(f"cmd-{i}" for i in range(5))

    def test_followers_forward_to_leader(self):
        loop, _, replicas, applied = deploy_replicas()
        replicas["r2"].submit("from-follower")
        loop.run_until_idle()
        assert applied["r0"] == ["from-follower"]
        assert replicas["r2"].stats["forwarded"] == 1

    def test_replica_must_be_listed_in_peers(self):
        loop, network, _, _ = deploy_replicas()
        with pytest.raises(ValueError):
            MultiPaxosReplica(
                "rx", ["r0", "r1"], SimTransport(network, "rx"), apply=lambda i, v: None,
                storage=InMemoryStorage(),
            )

    def test_leader_failover_preserves_and_continues_the_log(self):
        loop, network, replicas, applied = deploy_replicas()
        replicas["r0"].submit("before-crash")
        loop.run_until_idle()
        network.unregister("r0")
        for rid in ("r1", "r2"):
            replicas[rid].mark_failed("r0")
        assert replicas["r1"].is_leader
        replicas["r2"].submit("after-crash")
        loop.run_until_idle()
        assert applied["r1"] == ["before-crash", "after-crash"]
        assert applied["r2"] == ["before-crash", "after-crash"]

    def test_pending_forwarded_commands_reproposed_after_failover(self):
        loop, network, replicas, applied = deploy_replicas()
        # Crash the leader before it can decide the forwarded command.
        network.unregister("r0")
        replicas["r1"].submit("lost-then-recovered")
        for rid in ("r1", "r2"):
            replicas[rid].mark_failed("r0")
        loop.run_until_idle()
        assert applied["r1"] == ["lost-then-recovered"]
        assert applied["r2"] == ["lost-then-recovered"]

    def test_open_proposers_gauge_returns_to_zero_when_quiescent(self):
        # The leader used to keep one Proposer per instance for life, so the
        # "instances this replica is still driving" gauge only ever grew.
        loop, _, replicas, applied = deploy_replicas()
        registry = MetricsRegistry()
        replicas["r0"].register_metrics(registry)
        for i in range(20):
            replicas[f"r{i % 3}"].submit(f"cmd-{i}")
        # Mid-burst: the first command started phase 1, the rest queue behind.
        assert replicas["r0"]._pending_commands and not replicas["r0"]._proposers
        loop.run(until=2.5)
        assert replicas["r0"]._proposers  # phase 1 done: instances in flight
        loop.run_until_idle()
        assert len(applied["r0"]) == 20
        gauges = registry.snapshot()["gauges"]
        assert gauges['smr_open_proposers{replica="r0"}'] == 0
        assert all(not replica._proposers for replica in replicas.values())

    def test_displaced_command_is_reproposed_after_its_proposer_is_dropped(self):
        loop, network, replicas, applied = deploy_replicas()
        # The old leader got "old" accepted at instance 0 by both followers,
        # then crashed before anyone learned the decision.
        network.unregister("r0")
        for rid in ("r1", "r2"):
            replicas[rid].on_message(
                "r0", Accept(instance=0, ballot=Ballot(0, 0), value="old")
            )
            replicas[rid].mark_failed("r0")
        # The new leader aims "new" at instance 0 too; Paxos forces it to
        # adopt "old" there, so "new" must move to a fresh instance — after
        # instance 0's proposer is gone.
        replicas["r1"].submit("new")
        loop.run_until_idle()
        assert applied["r1"] == ["old", "new"]
        assert applied["r2"] == ["old", "new"]
        assert not replicas["r1"]._proposers

    @staticmethod
    def duelling_leaders():
        """r1 wrongly suspects r0, so both believe they lead; r1 neither
        asks r0 for votes nor tells it what was decided."""
        loop, _, replicas, applied = deploy_replicas()
        replicas["r1"].mark_failed("r0")
        assert replicas["r0"].is_leader and replicas["r1"].is_leader
        return loop, replicas, applied

    def test_duelling_leaders_retry_and_converge(self):
        loop, replicas, applied = self.duelling_leaders()
        # Interleaved, each command settling before the next: r0 keeps
        # proposing at instances r1 has already filled behind its back.
        for i in range(5):
            loop.schedule_at(20.0 * i, lambda i=i: replicas["r0"].submit(f"a{i}"))
            loop.schedule_at(20.0 * i + 10.0, lambda i=i: replicas["r1"].submit(f"b{i}"))
        loop.run_until_idle()
        commands = sorted([f"a{i}" for i in range(5)] + [f"b{i}" for i in range(5)])
        assert applied["r1"] == applied["r2"]
        assert sorted(applied["r1"]) == commands  # all ten, each exactly once
        # r0 never hears r1's last decision; what it applied is a prefix.
        assert applied["r0"] == applied["r1"][: len(applied["r0"])]
        assert len(applied["r0"]) >= 5
        # Each turn deposes the other side once: its next Accept is refused
        # (by its own acceptor, which promised the rival), it runs one new
        # phase 1 and fetches what the rival decided behind its back.  The
        # other acceptors' nacks for the same ballot must not outbid that
        # new leadership.
        for rid in ("r0", "r1"):
            stats = replicas[rid].stats
            assert 0 < stats["ballot_retries"] == stats["nacks"] <= 5
            # ... every one of which completed its phase 1 (r0's very first
            # did not: r1's prepare reached r2 before it).
            assert stats["leaderships"] >= stats["ballot_retries"]

    def test_simultaneous_duelling_leaders_terminate(self):
        # A strict xfail while a leadership was one ballot per instance: ten
        # lockstep instances meant ten duels to lose.  One ballot per
        # leadership leaves one, and r0 (outbid once) wins it.
        loop, replicas, applied = self.duelling_leaders()
        for i in range(5):
            replicas["r0"].submit(f"a{i}")
            replicas["r1"].submit(f"b{i}")
        loop.run_until_idle(max_events=20_000)
        assert len(applied["r1"]) == 10
        assert applied["r0"] == applied["r1"] == applied["r2"]
        assert replicas["r0"].stats["ballot_retries"] == 1
        assert replicas["r1"].stats["ballot_retries"] == 0

    @pytest.mark.xfail(
        strict=True,
        raises=RuntimeError,
        reason="duelling leaders still outbid each other forever when the "
        "second starts while the first's Accepts are in flight and latencies "
        "are exact: each one's Prepare reaches the shared acceptor just "
        "before the other's Accept.  tools/duel_sweep.py: 32 of 240 seeded "
        "schedules never settle (106 with a ballot per instance), all at "
        "zero jitter; nothing backs a preempted leader off (ROADMAP, "
        "correctness: the faults we don't yet inject)",
    )
    def test_staggered_duelling_leaders_terminate(self):
        loop, replicas, applied = self.duelling_leaders()
        loop.schedule_at(0.0, lambda: replicas["r0"].submit("a0"))
        loop.schedule_at(2.5, lambda: replicas["r1"].submit("b0"))
        loop.run_until_idle(max_events=20_000)
        assert applied["r1"] == applied["r2"] and len(applied["r1"]) == 2

    def test_single_replica_group_works(self):
        loop, _, replicas, applied = deploy_replicas(n=1)
        replicas["r0"].submit("solo")
        loop.run_until_idle()
        assert applied["r0"] == ["solo"]
        assert replicas["r0"].log == ["solo"]


class TestStorage:
    def test_a_replica_keeps_its_two_wals_under_its_own_id(self):
        # The names the committed corpora were written under.
        storage = InMemoryStorage()
        replica = MultiPaxosReplica(
            "r0", ["r0"], RecordingTransport(), apply=lambda i, v: None, storage=storage
        )
        assert storage.wal_names() == ["r0.acceptor", "r0.log"]
        replica.submit("solo")
        assert storage.wal("r0.acceptor").records() == [
            ["p", [0, 0]], ["a", 0, [0, 0], b'"solo"'],
        ]
        assert storage.wal("r0.log").records() == [["c", 0]]

    def test_decided_instances_count_the_applied_prefix_and_any_above_a_hole(self):
        replica = MultiPaxosReplica(
            "r1", ["r0", "r1"], RecordingTransport(), apply=lambda i, v: None,
            storage=InMemoryStorage(),
        )
        registry = MetricsRegistry()
        replica.register_metrics(registry)

        def gauges():
            snapshot = registry.snapshot()["gauges"]
            return [
                snapshot[f'smr_decided_{name}{{replica="r1"}}']
                for name in ("instances", "in_memory")
            ]

        replica.on_message("r0", CatchupReply(entries=((0, "a"), (1, "b"), (3, "d"))))
        assert replica.applied_count == 2 and gauges() == [3, 1]
        replica.on_message("r0", CatchupReply(entries=((2, "c"),)))
        assert replica.log == ["a", "b", "c", "d"] and gauges() == [4, 0]


class TestReplicatedGroup:
    def test_replicated_flexcast_group_delivers_once_and_replicas_agree(self):
        loop = EventLoop()
        matrix = LatencyMatrix(matrix=[[0.5, 5], [5, 0.5]], names=["x", "y"])
        network = Network(loop, matrix)
        overlay = CDagOverlay([0, 1])
        protocol = FlexCastProtocol(overlay)
        sink = RecordingSink()
        group = ReplicatedGroup(
            group_id=0, protocol=protocol, network=network, site=0, sink=sink,
            replication_factor=3,
        )
        request = ClientRequest(message=Message(msg_id="m1", dst=frozenset({0})))
        network.register("client", site=1, handler=lambda s, p: None)
        network.send("client", group.leader.replica_id, request)
        loop.run_until_idle()
        # Delivered exactly once to the outside world...
        assert sink.sequence(0) == ["m1"]
        # ...and every replica's protocol copy delivered it.
        assert all(r.local_deliveries == ["m1"] for r in group.replicas)

    def test_leader_crash_then_new_requests_still_delivered(self):
        loop = EventLoop()
        matrix = LatencyMatrix(matrix=[[0.5, 5], [5, 0.5]], names=["x", "y"])
        network = Network(loop, matrix)
        protocol = FlexCastProtocol(CDagOverlay([0, 1]))
        sink = RecordingSink()
        group = ReplicatedGroup(
            group_id=0, protocol=protocol, network=network, site=0, sink=sink,
            replication_factor=3,
        )
        network.register("client", site=1, handler=lambda s, p: None)
        network.send("client", group.leader.replica_id,
                     ClientRequest(message=Message(msg_id="m1", dst=frozenset({0}))))
        loop.run_until_idle()
        group.crash_replica(0, network)
        new_leader = group.leader
        assert new_leader.replica_id != group.replicas[0].replica_id
        network.send("client", new_leader.replica_id,
                     ClientRequest(message=Message(msg_id="m2", dst=frozenset({0}))))
        loop.run_until_idle()
        assert sink.sequence(0) == ["m1", "m2"]


class TestCatchupChunking:
    """A lapsed replica's decided suffix is served in bounded chunks.

    One giant ``CatchupReply`` would exceed the wire frame cap once a
    replica lapses for hundreds of thousands of instances (the soak's
    kill/restart window); the serving side must split it.
    """

    class _RecordingTransport:
        def __init__(self):
            self.sent = []

        def send(self, destination, payload):
            self.sent.append((destination, payload))

    def _replica_with_decisions(self, count):
        from repro.smr.multipaxos import Commit

        transport = self._RecordingTransport()
        replica = MultiPaxosReplica(
            "r1", ["r0", "r1"], transport, apply=lambda i, v: None,
            storage=InMemoryStorage(),
        )
        # A Commit names the decision, the Accept before it carried it.
        ballot = Ballot(0, 0)
        for instance in range(count):
            replica.on_message("r0", Accept(instance, ballot, f"v{instance}"))
            replica.on_message("r0", Commit(instance=instance, ballot=ballot))
        transport.sent.clear()
        return replica, transport

    def test_reply_split_into_bounded_chunks(self, monkeypatch):
        import repro.smr.multipaxos as mp

        monkeypatch.setattr(mp, "CATCHUP_CHUNK", 4)
        replica, transport = self._replica_with_decisions(10)
        replica.on_message(
            "rx", mp.CatchupRequest(from_instance=0, from_replica="rx")
        )

        replies = [msg for dst, msg in transport.sent if dst == "rx"]
        assert [len(reply.entries) for reply in replies] == [4, 4, 2]
        received = [entry for reply in replies for entry in reply.entries]
        assert received == [(i, f"v{i}") for i in range(10)]
        assert replica.stats["catchup_served"] == 1
        assert replica.stats["catchup_entries_sent"] == 10

    def test_chunks_apply_identically_to_one_reply(self, monkeypatch):
        import repro.smr.multipaxos as mp

        monkeypatch.setattr(mp, "CATCHUP_CHUNK", 3)
        source, transport = self._replica_with_decisions(8)
        source.on_message(
            "rx", mp.CatchupRequest(from_instance=2, from_replica="rx")
        )

        applied = []
        lapsed = MultiPaxosReplica(
            "rx", ["r1", "rx"], self._RecordingTransport(),
            apply=lambda i, v: applied.append((i, v)),
            storage=InMemoryStorage(),
        )
        for _, reply in transport.sent:
            lapsed.on_message("r1", reply)
        # Instances 0/1 were never decided at the lapsed replica, so the
        # in-order apply waterline stays parked before the suffix — but the
        # decisions themselves all landed, ready for a lower-instance fill.
        assert lapsed.stats["catchup_entries_applied"] == 6
        assert all(lapsed._decided[i] == f"v{i}" for i in range(2, 8))
