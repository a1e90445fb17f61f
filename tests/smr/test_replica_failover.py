"""Leader fail-over under load for :class:`ReplicatedGroup` (paper §4.4).

A replicated FlexCast group keeps a client-visible exactly-once delivery
stream even when its leader replica crashes mid-stream: commands forwarded
through surviving followers are re-proposed by the new leader, nothing is
delivered twice (the protocol state machine would raise on a duplicate), and
all surviving replicas apply the same log.
"""

import gc
import weakref

from repro.core.flexcast import FlexCastProtocol
from repro.core.message import ClientRequest, Message
from repro.overlay.cdag import CDagOverlay
from repro.protocols.base import RecordingSink
from repro.sim.events import EventLoop
from repro.sim.latencies import LatencyMatrix
from repro.sim.network import Network
from repro.smr.replica import ReplicatedGroup


def deploy(replication_factor=3):
    loop = EventLoop()
    matrix = LatencyMatrix(matrix=[[0.5, 5], [5, 0.5]], names=["x", "y"])
    network = Network(loop, matrix)
    protocol = FlexCastProtocol(CDagOverlay([0, 1]))
    sink = RecordingSink(clock=lambda: loop.now)
    group = ReplicatedGroup(
        group_id=0,
        protocol=protocol,
        network=network,
        site=0,
        sink=sink,
        replication_factor=replication_factor,
    )
    network.register("client", site=1, handler=lambda s, p: None)
    return loop, network, group, sink


class TestLeaderFailoverMidStream:
    def test_no_lost_or_duplicated_deliveries_across_the_crash(self):
        loop, network, group, sink = deploy()
        follower = group.replicas[1].replica_id
        total = 20

        # A steady stream of requests, all submitted through a *surviving*
        # follower (which forwards to whoever currently leads).
        for i in range(total):
            message = Message(msg_id=f"m{i}", dst=frozenset({0}), sender="client")
            loop.schedule_at(
                10.0 * i,
                lambda m=message: network.send(
                    "client", follower, ClientRequest(message=m)
                ),
            )

        # Crash the leader mid-stream, with commands still in flight.
        loop.schedule_at(95.0, lambda: group.crash_replica(0, network))
        loop.run_until_idle()

        # The new leader resumed the stream: every message delivered to the
        # outside world exactly once, in submission order.
        assert group.leader.replica_id != group.replicas[0].replica_id
        assert sink.sequence(0) == [f"m{i}" for i in range(total)]

        # All surviving replicas applied the identical ordered log.
        sequences = group.delivered_sequences()
        survivors = [
            sequences[r.replica_id]
            for i, r in enumerate(group.replicas)
            if i != 0
        ]
        assert survivors[0] == survivors[1] == [f"m{i}" for i in range(total)]

    def test_crash_between_streams_loses_nothing(self):
        loop, network, group, sink = deploy()
        follower = group.replicas[2].replica_id

        for i in range(5):
            message = Message(msg_id=f"a{i}", dst=frozenset({0}), sender="client")
            network.send("client", follower, ClientRequest(message=message))
        loop.run_until_idle()
        assert sink.sequence(0) == [f"a{i}" for i in range(5)]

        group.crash_replica(0, network)
        for i in range(5):
            message = Message(msg_id=f"b{i}", dst=frozenset({0}), sender="client")
            network.send("client", follower, ClientRequest(message=message))
        loop.run_until_idle()

        assert sink.sequence(0) == [f"a{i}" for i in range(5)] + [
            f"b{i}" for i in range(5)
        ]
        assert len(set(sink.sequence(0))) == 10


def send(network, replica, msg_id):
    message = Message(msg_id=msg_id, dst=frozenset({0}), sender="client")
    network.send("client", replica.replica_id, ClientRequest(message=message))


class TestReportedWatermark:
    def test_one_delivery_count_is_shared_by_every_incarnation(self):
        loop, network, group, sink = deploy()
        for i in range(4):
            send(network, group.replicas[2], f"a{i}")
        loop.run_until_idle()
        group.crash_replica(0, network)
        for i in range(3):
            send(network, group.replicas[2], f"b{i}")
        loop.run_until_idle()
        # The rebooted replica replays all seven and reports none of them.
        rebooted = group.restart_replica(0, network)
        loop.run_until_idle()
        assert rebooted.local_deliveries == sink.sequence(0)
        send(network, group.replicas[2], "c0")
        loop.run_until_idle()

        assert sink.sequence(0) == ["a0", "a1", "a2", "a3", "b0", "b1", "b2", "c0"]
        assert len({id(replica._reported) for replica in group.replicas}) == 1
        assert group.replicas[0]._reported.count == 8


class TestClose:
    def test_close_kills_every_replica_and_a_closed_run_is_freed(self, refcount_only):
        loop, network, group, sink = deploy()
        for i in range(3):
            send(network, group.replicas[1], f"m{i}")
        loop.run_until_idle()
        replicas = [weakref.ref(replica) for replica in group.replicas]

        group.close()
        assert all(replica.dead for replica in group.replicas)
        network.close()
        loop.close()
        del group, network, loop
        assert [ref() for ref in replicas] == [None, None, None]
        assert gc.collect() == 0
        assert sink.sequence(0) == ["m0", "m1", "m2"]  # what was reported stays
