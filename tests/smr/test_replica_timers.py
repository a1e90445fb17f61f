"""A timer a replicated protocol copy arms is ordered through the log
(``smr/replica.py``: :class:`TimerFired`).

The copy's ``transport.schedule`` arms a real timer on every replica; when
one is due its replica submits a ``TimerFired`` entry, and every copy runs
the callback where the first such entry commits — under the leader's gate,
at one log position, once.  Before that the callback ran on each replica's
own clock, outside ``_apply`` with the gate shut: whatever it sent was
dropped, and replicas could deliver at different log positions.

:class:`TimerGroup` is the smallest protocol that shows all of it: a request
named ``arm…`` arms a timer whose callback delivers ``…-fired`` and tells an
observer node.
"""

from __future__ import annotations

import asyncio

from repro.checker.recovery import check_recovery
from repro.core.message import ClientRequest, ClientResponse, Message
from repro.overlay.cdag import CDagOverlay
from repro.protocols.base import (
    AtomicMulticastGroup, AtomicMulticastProtocol, RecordingSink,
)
from repro.sim.events import EventLoop
from repro.sim.latencies import LatencyMatrix
from repro.sim.network import Network
from repro.sim.transport import Transport
from repro.smr.replica import GroupReplica, ReplicatedGroup, TimerFired
from repro.storage import InMemoryStorage

DELAY_MS = 100.0


class TimerGroup(AtomicMulticastGroup):
    """Delivers every request at once; ``arm…`` arms a timer, ``cancel…``
    cancels the one armed last."""

    #: Nothing for ``restart_replica``'s snapshot offer to pack.
    history = ()

    def on_envelope(self, sender, envelope):
        self.on_client_request(envelope.message)

    def on_client_request(self, message):
        self.deliver(message)
        if message.msg_id.startswith("arm"):
            self.timer = self.transport.schedule(
                DELAY_MS, lambda: self._fire(message.msg_id)
            )
        elif message.msg_id.startswith("cancel"):
            self.timer.cancel()

    def _fire(self, armed_by):
        fired = f"{armed_by}-fired"
        self.deliver(Message(msg_id=fired, dst=frozenset({self.group_id}), sender="timer"))
        self.send("observer", ClientResponse(msg_id=fired, group=self.group_id))


class TimerProtocol(AtomicMulticastProtocol):
    def create_group(self, group_id, transport, sink):
        return TimerGroup(group_id, transport, sink)

    def entry_groups(self, message):
        return sorted(message.dst)


def request(msg_id):
    return ClientRequest(message=Message(msg_id=msg_id, dst=frozenset({0}), sender="client"))


class Deployment:
    """One 3-replica TimerGroup on the simulator: replicas 0.5 ms apart, the
    client and the observer 5 ms away."""

    def __init__(self):
        self.loop = EventLoop()
        self.network = Network(
            self.loop, LatencyMatrix([[0.5, 5], [5, 0.5]], ["group", "clients"])
        )
        self.sink = RecordingSink()
        self.group = ReplicatedGroup(
            group_id=0, protocol=TimerProtocol(CDagOverlay([0])),
            network=self.network, site=0, sink=self.sink,
            replication_factor=3, storage=InMemoryStorage(),
        )
        self.observed = []
        self.network.register("client", site=1, handler=lambda s, p: None)
        self.network.register(
            "observer", site=1, handler=lambda s, p: self.observed.append((s, p.msg_id))
        )

    @property
    def replicas(self):
        return self.group.replicas

    def send_at(self, at_ms, msg_id, to=None):
        """``to=None`` is whoever leads when the request leaves."""
        def send():
            target = self.group.leader if to is None else self.replicas[to]
            self.network.send("client", target.replica_id, request(msg_id))

        self.loop.schedule_at(at_ms, send)

    def traffic_around_the_firing(self):
        """Requests arriving every 0.2 ms while the three real timers run out
        and their entries commit, so the firing has neighbours in the log on
        both sides and its place among them is there to compare."""
        ids = [f"m{i}" for i in range(20)]
        for i, msg_id in enumerate(ids):
            self.send_at(DELAY_MS - 1.0 + i * 0.2, msg_id)
        return ids

    def run(self):
        self.loop.run_until_idle(max_events=50_000)

    def firing_instances(self, replica, index=0):
        """Log instances of ``replica`` that report timer ``index`` due."""
        return [
            instance
            for instance, turn in enumerate(replica.smr.log)
            for entry in turn.entries
            if entry.envelope == TimerFired(index)
        ]


class TestATimerIsALogEntry:
    def test_fires_once_at_one_log_position_on_every_replica(self):
        d = Deployment()
        d.send_at(0.0, "arm")
        ids = d.traffic_around_the_firing()
        d.run()

        reference = d.replicas[0].local_deliveries
        assert reference.count("arm-fired") == 1
        assert sorted(reference) == sorted(["arm", "arm-fired"] + ids)
        # Inside the traffic, not before or after it — and in the same place
        # everywhere, because it is the same log instance everywhere.
        assert 1 < reference.index("arm-fired") < len(reference) - 1
        for replica in d.replicas[1:]:
            assert replica.local_deliveries == reference
            assert d.firing_instances(replica) == d.firing_instances(d.replicas[0])
        # All three replicas reported it due; the first report ran it.
        assert len(d.firing_instances(d.replicas[0])) == 3
        # The leader's gate was open: what the callback sent left, once.
        assert d.observed == [(d.replicas[0].replica_id, "arm-fired")]
        assert d.sink.sequence(0).count("arm-fired") == 1

    def test_each_arming_is_its_own_timer(self):
        d = Deployment()
        d.send_at(0.0, "arm-a")
        d.send_at(40.0, "arm-b")
        d.run()
        for replica in d.replicas:
            assert replica.local_deliveries == ["arm-a", "arm-b", "arm-a-fired", "arm-b-fired"]
            assert len(d.firing_instances(replica, 0)) == 3
            assert len(d.firing_instances(replica, 1)) == 3
        assert [msg_id for _, msg_id in d.observed] == ["arm-a-fired", "arm-b-fired"]

    def test_cancel_is_honoured(self):
        d = Deployment()
        d.send_at(0.0, "arm")
        d.send_at(50.0, "cancel")
        d.run()
        assert d.loop.now < DELAY_MS + 50.0  # nothing waited for the timer
        for replica in d.replicas:
            assert replica.local_deliveries == ["arm", "cancel"]
            assert d.firing_instances(replica) == []
            assert not replica._gated._timers
        assert d.observed == []


class TestFailOver:
    def test_timer_pending_across_a_leader_crash_fires_once(self):
        d = Deployment()
        d.send_at(0.0, "arm")
        d.loop.schedule_at(50.0, lambda: d.group.crash_replica(0, d.network))
        ids = d.traffic_around_the_firing()
        d.run()

        old, new_leader, follower = d.replicas
        assert old.local_deliveries == ["arm"]
        assert not old._gated._timers  # no timer outlives a dead replica
        assert new_leader.is_leader
        assert new_leader.local_deliveries.count("arm-fired") == 1
        assert sorted(new_leader.local_deliveries) == sorted(["arm", "arm-fired"] + ids)
        assert follower.local_deliveries == new_leader.local_deliveries
        # The new leader's copy ran it with the gate open.
        assert d.observed == [(new_leader.replica_id, "arm-fired")]

    def test_follower_down_across_the_firing_catches_it_up_once(self):
        d = Deployment()
        d.send_at(0.0, "arm")
        pre_crash = []

        def crash():
            pre_crash.extend(d.replicas[2].local_deliveries)
            d.group.crash_replica(2, d.network)

        d.loop.schedule_at(50.0, crash)
        ids = d.traffic_around_the_firing()
        d.loop.schedule_at(DELAY_MS + 50.0, lambda: d.group.restart_replica(2, d.network))
        d.run()

        rejoined = d.replicas[2]
        assert pre_crash == ["arm"]
        # The replay re-armed the timer; the caught-up entry ran and retired it.
        assert rejoined.local_deliveries.count("arm-fired") == 1
        assert not rejoined._gated._timers
        assert sorted(rejoined.local_deliveries) == sorted(["arm", "arm-fired"] + ids)
        report = check_recovery(
            pre_crash, rejoined.local_deliveries, d.replicas[0].local_deliveries
        )
        assert report.ok, report.violations
        assert d.observed == [(d.replicas[0].replica_id, "arm-fired")]

    def test_replay_runs_a_recorded_firing_and_not_twice(self):
        d = Deployment()
        d.send_at(0.0, "arm")
        d.send_at(DELAY_MS + 20.0, "after")
        d.loop.schedule_at(DELAY_MS + 40.0, lambda: d.group.crash_replica(1, d.network))
        d.loop.schedule_at(DELAY_MS + 60.0, lambda: d.group.restart_replica(1, d.network))
        d.run()

        rejoined = d.replicas[1]
        assert rejoined.smr.recovered_instances > 0  # it did replay its WAL
        assert rejoined.local_deliveries == ["arm", "arm-fired", "after"]
        assert not rejoined._gated._timers
        assert d.loop.now < 2 * DELAY_MS + 60.0  # the replay armed nothing that ran out
        assert d.observed == [(d.replicas[0].replica_id, "arm-fired")]

    def test_replay_re_arms_a_timer_that_is_still_pending(self):
        # Nobody else is left to report it: a group of one, down across the
        # instant its timer would have run out.
        loop = EventLoop()
        network = Network(loop, LatencyMatrix([[0.5, 5], [5, 0.5]], ["group", "clients"]))
        sink = RecordingSink()
        group = ReplicatedGroup(
            group_id=0, protocol=TimerProtocol(CDagOverlay([0])), network=network,
            site=0, sink=sink, replication_factor=1, storage=InMemoryStorage(),
        )
        network.register("client", site=1, handler=lambda s, p: None)
        network.send("client", group.replicas[0].replica_id, request("arm"))
        loop.schedule_at(50.0, lambda: group.crash_replica(0, network))
        loop.schedule_at(DELAY_MS + 50.0, lambda: group.restart_replica(0, network))
        loop.run_until_idle(max_events=10_000)

        assert group.replicas[0].local_deliveries == ["arm", "arm-fired"]
        assert loop.now == 2 * DELAY_MS + 50.0  # a full delay from the replay
        assert sink.sequence(0) == ["arm", "arm-fired"]


class _LoopTransport(Transport):
    """A replica's outer transport on a running asyncio loop."""

    def send(self, dst, payload):
        pass

    def now(self):
        return asyncio.get_running_loop().time() * 1000.0

    def schedule(self, delay_ms, callback):
        return asyncio.get_running_loop().call_later(delay_ms / 1000.0, callback)


def test_no_timer_outlives_a_killed_replica_on_a_real_loop():
    # What ``ReplicaServer.stop`` relies on (the ``-X dev`` leak gate runs
    # this directory): ``kill`` cancels the loop's handles, it does not just
    # make their callbacks no-ops.
    async def scenario():
        replica = GroupReplica(
            group_id=0, replica_id="r0", peer_replicas=["r0"],
            protocol=TimerProtocol(CDagOverlay([0])), transport=_LoopTransport(),
            sink=RecordingSink(),
        )
        replica.on_message("client", request("arm"))
        await asyncio.sleep(0.01)  # the turn's flush, and the apply behind it
        (_, handle), = replica._gated._timers.values()
        assert not handle.cancelled()
        replica.kill()
        return replica, handle

    replica, handle = asyncio.run(scenario())
    assert handle.cancelled()
    assert not replica._gated._timers
    assert replica.local_deliveries == ["arm"]
