"""Rejoin catch-up from the log alone (paper §4.4).

A restarted replica replays its WALs, then ``rejoin`` pulls the decided
suffix it missed from its peers.  Its protocol state is a pure function of
the log, so that is all it needs: after catch-up its FlexCast history holds
the same messages and edges as a survivor's, and nothing but the requests
themselves went through the log.
"""

import pytest

from repro.core.flexcast import FlexCastProtocol
from repro.core.message import ClientRequest, Message
from repro.overlay.cdag import CDagOverlay
from repro.protocols.base import RecordingSink
from repro.runtime.proc import _sequence_digest
from repro.sim.events import EventLoop
from repro.sim.latencies import LatencyMatrix
from repro.sim.network import Network
from repro.smr.replica import ReplicatedGroup
from repro.storage import InMemoryStorage


def deploy(storage=None):
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
        replication_factor=3,
        storage=storage,
    )
    network.register("client", site=1, handler=lambda s, p: None)
    return loop, network, group, sink


def submit(network, target, ids):
    for mid in ids:
        network.send(
            "client",
            target,
            ClientRequest(message=Message(msg_id=mid, dst=frozenset({0}), sender="client")),
        )


def logged_envelope_kinds(replica):
    return {type(entry.envelope) for turn in replica.smr.log for entry in turn.entries}


def history_of(replica):
    history = replica.protocol_state.history
    return set(history.message_ids()), set(history.edges())


class TestRejoinFromTheLogAlone:
    @pytest.mark.parametrize("victim", [1, 2])
    @pytest.mark.parametrize("missed", [0, 1, 4])
    def test_rejoiner_history_is_a_survivors(self, victim, missed):
        loop, network, group, sink = deploy(storage=InMemoryStorage())
        leader_id = group.replicas[0].replica_id

        submit(network, leader_id, [f"a{i}" for i in range(6)])
        loop.run_until_idle()
        group.crash_replica(victim, network)
        submit(network, leader_id, [f"b{i}" for i in range(missed)])
        loop.run_until_idle()

        restarted = group.restart_replica(victim, network)
        loop.run_until_idle()

        expected = [f"a{i}" for i in range(6)] + [f"b{i}" for i in range(missed)]
        assert history_of(restarted) == history_of(group.replicas[0])
        assert history_of(restarted)[0] == set(expected)
        # Only the requests went through the log: no frame rode along.
        for replica in group.replicas:
            assert logged_envelope_kinds(replica) == {ClientRequest}
        # The client-visible stream stayed exactly-once throughout.
        assert sink.sequence(0) == expected

    def test_stream_continues_cleanly_after_catchup(self):
        loop, network, group, sink = deploy(storage=InMemoryStorage())
        leader_id = group.replicas[0].replica_id

        submit(network, leader_id, ["a0", "a1"])
        loop.run_until_idle()
        group.crash_replica(1, network)
        submit(network, leader_id, ["b0", "b1"])
        loop.run_until_idle()
        group.restart_replica(1, network)
        loop.run_until_idle()

        submit(network, leader_id, ["c0", "c1"])
        loop.run_until_idle()
        assert sink.sequence(0) == ["a0", "a1", "b0", "b1", "c0", "c1"]

        # Every live replica delivered the identical sequence.
        assert {tuple(r.local_deliveries) for r in group.replicas} == {
            ("a0", "a1", "b0", "b1", "c0", "c1")
        }


class TestRunningDeliveryDigest:
    """``/delivered`` answers from :attr:`GroupReplica.delivery_hash`; it must
    stay byte-identical to the digest of the sequence it summarises."""

    def test_matches_the_sequence_digest_through_replay_and_catchup(self):
        loop, network, group, sink = deploy(storage=InMemoryStorage())
        leader_id = group.replicas[0].replica_id

        def check():
            for replica in group.replicas:
                assert replica.delivery_hash.hexdigest() == _sequence_digest(
                    replica.local_deliveries
                )

        check()  # empty sequence
        submit(network, leader_id, ["a0"])
        loop.run_until_idle()
        check()  # one id: no separator yet
        submit(network, leader_id, ["a1", "a2"])
        submit(network, group.replicas[1].replica_id, ["a3"])
        loop.run_until_idle()
        check()
        group.crash_replica(2, network)
        submit(network, leader_id, ["b0", "b1"])
        loop.run_until_idle()
        restarted = group.restart_replica(2, network)  # replays its WAL ...
        assert restarted.local_deliveries == ["a0", "a1", "a2", "a3"]
        check()
        loop.run_until_idle()  # ... then catches up on what it missed
        assert len(restarted.local_deliveries) == 6
        check()
