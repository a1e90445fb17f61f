"""What a replica's protocol copy may do to the world (``smr/replica.py``).

Every replica applies every committed turn to its own protocol copy; only
the leader's copy reaches the network, and none may arm a timer, because a
copy's state must be a function of the log alone.  :class:`EchoGroup` is the
smallest protocol that shows it: it delivers every request, answers an
observer, and a request named ``arm…`` asks its transport for a timer.
"""

from __future__ import annotations

import pytest

from repro.core.message import ClientRequest, ClientResponse, Message
from repro.overlay.cdag import CDagOverlay
from repro.protocols.base import (
    AtomicMulticastGroup, AtomicMulticastProtocol, RecordingSink,
)
from repro.sim.events import EventLoop
from repro.sim.latencies import LatencyMatrix
from repro.sim.network import Network
from repro.smr.replica import ReplicatedGroup
from repro.storage import InMemoryStorage
from repro.storage.file import _encode_record


class EchoGroup(AtomicMulticastGroup):
    #: Nothing for ``restart_replica``'s snapshot offer to pack.
    history = ()

    def on_envelope(self, sender, envelope):
        self.on_client_request(envelope.message)

    def on_client_request(self, message):
        if message.msg_id.startswith("arm"):
            self.transport.schedule(100.0, lambda: None)
        self.deliver(message)
        self.send("observer", ClientResponse(msg_id=message.msg_id, group=self.group_id))


class EchoProtocol(AtomicMulticastProtocol):
    def create_group(self, group_id, transport, sink):
        return EchoGroup(group_id, transport, sink)

    def entry_groups(self, message):
        return sorted(message.dst)


def request(msg_id):
    return ClientRequest(message=Message(msg_id=msg_id, dst=frozenset({0}), sender="client"))


class Deployment:
    """One 3-replica EchoGroup on the simulator: replicas 0.5 ms apart, the
    client and the observer 5 ms away."""

    def __init__(self, storage=None):
        self.loop = EventLoop()
        self.network = Network(
            self.loop, LatencyMatrix([[0.5, 5], [5, 0.5]], ["group", "clients"])
        )
        self.sink = RecordingSink()
        self.group = ReplicatedGroup(
            group_id=0, protocol=EchoProtocol(CDagOverlay([0])),
            network=self.network, site=0, sink=self.sink,
            replication_factor=3, storage=storage,
        )
        self.observed = []
        self.network.register("client", site=1, handler=lambda s, p: None)
        self.network.register(
            "observer", site=1, handler=lambda s, p: self.observed.append((s, p.msg_id))
        )

    @property
    def replicas(self):
        return self.group.replicas

    def send(self, msg_id, to=None):
        target = self.group.leader if to is None else self.replicas[to]
        self.network.send("client", target.replica_id, request(msg_id))

    def run(self):
        self.loop.run_until_idle(max_events=50_000)


class TestOnlyTheLeaderSpeaks:
    def test_every_copy_applies_and_one_answers(self):
        d = Deployment()
        d.send("m0")
        d.send("m1", to=2)  # a follower's request reaches the log too
        d.run()
        for replica in d.replicas:
            assert replica.local_deliveries == ["m0", "m1"]
        leader = d.group.leader.replica_id
        assert d.observed == [(leader, "m0"), (leader, "m1")]
        assert d.sink.sequence(0) == ["m0", "m1"]

    def test_after_a_fail_over_the_new_leaders_copy_answers(self):
        d = Deployment()
        d.send("m0")
        d.run()
        old = d.group.leader
        d.group.crash_replica(d.replicas.index(old), d.network)
        d.send("m1")
        d.run()
        new = d.group.leader
        assert new is not old
        assert d.observed == [(old.replica_id, "m0"), (new.replica_id, "m1")]
        assert d.sink.sequence(0) == ["m0", "m1"]

    def test_a_replica_replaying_its_wal_says_nothing(self):
        storage = InMemoryStorage()
        d = Deployment(storage=storage)
        for msg_id in ("m0", "m1"):
            d.send(msg_id)
        d.run()
        index = 2
        d.group.crash_replica(index, d.network)
        observed = list(d.observed)
        rejoiner = d.group.restart_replica(index, d.network)
        d.run()
        assert rejoiner.local_deliveries == ["m0", "m1"]
        assert d.observed == observed
        assert d.sink.sequence(0) == ["m0", "m1"]


class TestNoProtocolTimers:
    def test_a_copy_that_arms_a_timer_raises_on_every_replica(self):
        d = Deployment()
        d.send("m0")
        d.run()
        d.send("arm")
        errors = []
        while True:
            try:
                if not d.loop.step():
                    break
            except NotImplementedError as exc:
                errors.append(exc)
        # Loud, once per replica, at the same log position on each: the copy
        # raised before it delivered or answered anything.
        assert len(errors) == 3
        for replica in d.replicas:
            assert replica.local_deliveries == ["m0"]
            assert replica.smr.applied_count == 2
        assert [msg_id for _, msg_id in d.observed] == ["m0"]

    def test_a_wal_turn_of_a_retired_entry_type_is_cut_at_replay(self, caplog):
        """The replicated protocol timer was such an entry: no committed WAL
        holds one, and a WAL that does is read as far as the turn before it,
        like any unreadable value."""
        storage = InMemoryStorage()
        d = Deployment(storage=storage)
        d.send("m0")
        d.run()
        index = 2
        d.group.crash_replica(index, d.network)
        victim = d.replicas[index].replica_id
        log = storage.wal(f"{victim}.log")
        timer = (
            b'{"__oe__":1,"sender":"group-0-replica-1",'
            b'"envelope":{"type":"retired","index":7}}'
        )
        log._frames.append(_encode_record(["c", 1, timer]))  # its checksum holds

        with caplog.at_level("WARNING", logger="repro.smr.multipaxos"):
            rejoiner = d.group.restart_replica(index, d.network)
        assert rejoiner.smr.recovered_instances == 1
        assert log.records() == [["c", 0]]
        (cut,) = [r.getMessage() for r in caplog.records if "commit WAL cut" in r.getMessage()]
        assert "retired" in cut
        d.send("m1")
        d.run()
        for replica in d.replicas:
            assert replica.local_deliveries == ["m0", "m1"]


def test_no_copys_transport_schedules():
    d = Deployment()
    for replica in d.replicas:
        with pytest.raises(NotImplementedError):
            replica.protocol_state.transport.schedule(0, lambda: None)
