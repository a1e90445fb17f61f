"""Rejoin catch-up via the ordered history snapshot (paper §4.4 + cold sync).

``restart_replica`` follows the SMR rejoin with one ``history-snapshot``
frame, packed from the current leader's live history and ordered *through*
the replicated log — so the rebooted replica bulk-installs the history it
missed in one O(affected) merge, every replica's protocol state stays a pure
function of the log, and survivors no-op on the idempotent install.
"""

from repro.core.flexcast import FlexCastGroup, FlexCastProtocol
from repro.core.message import ClientRequest, HistorySnapshotFrame, Message
from repro.overlay.cdag import CDagOverlay
from repro.protocols.base import RecordingSink
from repro.runtime.proc import _sequence_digest
from repro.sim.events import EventLoop
from repro.sim.latencies import LatencyMatrix
from repro.sim.network import Network
from repro.sim.transport import RecordingTransport
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


def snapshot_frames_applied(replica):
    return [
        entry
        for turn in replica.smr.log
        for entry in turn.entries
        if isinstance(entry.envelope, HistorySnapshotFrame)
    ]


class TestRejoinSnapshotCatchup:
    def test_restarted_replica_bulk_installs_the_missed_history(self):
        loop, network, group, sink = deploy(storage=InMemoryStorage())
        leader_id = group.replicas[0].replica_id

        submit(network, leader_id, [f"a{i}" for i in range(6)])
        loop.run_until_idle()

        group.crash_replica(2, network)
        submit(network, leader_id, [f"b{i}" for i in range(4)])
        loop.run_until_idle()

        restarted = group.restart_replica(2, network)
        loop.run_until_idle()

        # The catch-up frame went through the log: the restarted replica
        # applied it, and its protocol history now holds everything.
        assert snapshot_frames_applied(restarted), "no snapshot frame ordered"
        expected = {f"a{i}" for i in range(6)} | {f"b{i}" for i in range(4)}
        assert expected <= set(restarted.protocol_state.history.message_ids())

        # Survivors applied the same frame (same log) and no-op'd: their
        # histories hold the same live content as the restarted copy.
        for replica in group.replicas:
            assert snapshot_frames_applied(replica) or replica is restarted
            assert expected <= set(replica.protocol_state.history.message_ids())

        # The client-visible stream stayed exactly-once throughout.
        assert sink.sequence(0) == [f"a{i}" for i in range(6)] + [
            f"b{i}" for i in range(4)
        ]

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

        # Every live replica converged on the identical applied log.
        sequences = group.delivered_sequences()
        assert len({tuple(s) for s in sequences.values()}) == 1

    def test_no_frame_ordered_when_the_leader_has_no_history(self):
        loop, network, group, sink = deploy(storage=InMemoryStorage())
        group.crash_replica(2, network)
        restarted = group.restart_replica(2, network)
        loop.run_until_idle()
        assert snapshot_frames_applied(restarted) == []


class TestOfferedSnapshotFrame:
    """The frame :meth:`GroupReplica.offer_snapshot` orders, and what a
    receiving group's ``on_envelope`` does with it."""

    def offered_frame(self, fill):
        loop, network, group, sink = deploy()
        submit(network, group.leader.replica_id, [f"m{i}" for i in range(fill)])
        loop.run_until_idle()
        assert group.leader.offer_snapshot()
        loop.run_until_idle()
        (entry,) = snapshot_frames_applied(group.leader)
        return entry.envelope, group.leader.protocol_state

    def test_packs_the_full_live_history(self):
        frame, state = self.offered_frame(fill=12)
        assert frame.group == 0
        assert len(state.history) == 12
        assert set(frame.delta.iter_vertices()) == set(
            state.history.full_delta().vertices
        )
        assert set(frame.delta.iter_edges()) == set(state.history.edges())

    def test_application_is_idempotent(self):
        frame, source = self.offered_frame(fill=8)
        target = FlexCastGroup(
            1, CDagOverlay([0, 1]), RecordingTransport(1), RecordingSink()
        )
        target.on_envelope("recovery", frame)
        installed = (set(target.history.message_ids()), target.history.version)
        assert installed[0] == set(source.history.message_ids())
        assert set(target.history.edges()) == set(source.history.edges())
        target.on_envelope("recovery", frame)
        assert (set(target.history.message_ids()), target.history.version) == installed


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
