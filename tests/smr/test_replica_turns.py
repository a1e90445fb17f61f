"""One consensus instance per turn, not per envelope (``smr/replica.py``).

A :class:`GroupReplica` orders what it received before its transport's clock
moved as ONE log value (:class:`Turn`).  Exact counts in the style of
``test_leadership.TestSteadyStateCost`` for what a turn costs, then the rules
a turn obeys: a turn of one is the bytes the log always held, FIFO per
sender, the size bound, the error rule, crash semantics, a follower's turn,
and the same over real TCP.  ``TestEveryFaultPlacementWithABurst`` exists
because the seeded sweeps almost never co-time two envelopes at one replica.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import struct
from collections import Counter

import repro.smr.replica as replica_module
from repro.checker.recovery import check_recovery
from repro.core.flexcast import FlexCastProtocol
from repro.core.message import ClientRequest, FlexCastBatch, Message
from repro.overlay.cdag import CDagOverlay
from repro.protocols.base import ProtocolError, RecordingSink
from repro.runtime.codec import MAX_FRAME_BYTES, decode_frame, encode_frame
from repro.runtime.node import _http_get
from repro.runtime.proc import ClusterSpec, ProcessCluster, ReplicaServer
from repro.sim.events import EventLoop
from repro.sim.latencies import LatencyMatrix
from repro.sim.network import Network
from repro.sim.transport import RecordingTransport
from repro.smr.multipaxos import (
    CatchupReply, CatchupRequest, ClientCommand, Commit, MultiPaxosReplica,
)
from repro.smr.paxos import Accept, Accepted, stored_text
from repro.smr.replica import OrderedEnvelope, ReplicatedGroup, Turn, replica_node
from repro.storage import InMemoryStorage
from repro.storage.file import _scan_frames

LEADERSHIP_WAL = os.path.join(os.path.dirname(__file__), "data", "leadership_wal")
SMR_FRAMES = (Accept, Accepted, Commit, ClientCommand)


def request(msg_id, dst=(0,), sender="client", payload_bytes=64):
    return ClientRequest(
        message=Message(
            msg_id=msg_id, dst=frozenset(dst), sender=sender, payload_bytes=payload_bytes
        )
    )


class Deployment:
    """One 3-replica FlexCast group on the simulator (the corpora's scenario:
    replicas 0.5 ms apart, clients 5 ms away), its frames and its WALs."""

    def __init__(self, storage=None):
        self.loop = EventLoop()
        self.network = Network(
            self.loop, LatencyMatrix([[0.5, 5], [5, 0.5]], ["group", "clients"])
        )
        self.storage = storage
        self.sink = RecordingSink(clock=lambda: self.loop.now)
        self.group = ReplicatedGroup(
            group_id=0, protocol=FlexCastProtocol(CDagOverlay([0, 1])),
            network=self.network, site=0, sink=self.sink,
            replication_factor=3, storage=storage,
        )
        for client in ("client", "client-b"):
            self.network.register(client, site=1, handler=lambda s, p: None)
        self.frames = []
        self.network.add_delivery_observer(
            lambda time, src, dst, payload: self.frames.append((src, dst, payload))
        )

    @property
    def replicas(self):
        return self.group.replicas

    def send(self, *requests, to=0, sender="client"):
        """Everything sent here leaves at one instant and arrives at one."""
        for envelope in requests:
            self.network.send(sender, self.replicas[to].replica_id, envelope)

    def run(self):
        return self.loop.run_until_idle(max_events=50_000)

    def warm_up(self):
        """Phase 1 and the leadership's first decision are out of the way."""
        self.send(request("warm"))
        self.run()
        del self.frames[:]

    def smr_frames(self):
        return [payload for _, _, payload in self.frames if isinstance(payload, SMR_FRAMES)]

    def instances(self):
        return self.replicas[0].smr.applied_count


# ------------------------------------------------------------ (a) what a turn costs
class TestTurnCost:
    def test_five_envelopes_at_one_instant_are_one_instance(self):
        d = Deployment(storage=InMemoryStorage())
        d.warm_up()
        instances, appends = d.instances(), d.storage.stats["appends"]
        committed = d.replicas[0].smr.stats["committed"]
        ids = [f"m{i}" for i in range(5)]
        d.send(*(request(mid) for mid in ids))
        d.run()

        assert d.instances() - instances == 1
        assert d.replicas[0].smr.stats["committed"] - committed == 1
        assert Counter(type(f).__name__ for f in d.smr_frames()) == {
            "Accept": 2, "Accepted": 2, "Commit": 2,
        }
        assert d.storage.stats["appends"] - appends == 6
        for replica in d.replicas:
            assert replica.local_deliveries == ["warm"] + ids
            assert [e.envelope.message.msg_id for e in replica.smr.log[-1].entries] == ids
        assert d.sink.sequence(0) == ["warm"] + ids  # reported once each

    # -------------------------------------------- (b) a turn of one is today's bytes
    def test_five_envelopes_at_five_instants_are_the_committed_golden_bytes(self):
        # The leadership_wal corpus was written by the commit that ordered
        # one envelope per instance; its first requests are a0..a4 from
        # "client" to this very deployment.
        with open(os.path.join(LEADERSHIP_WAL, "group-0-replica-0.acceptor.wal"), "rb") as fh:
            golden, _ = _scan_frames(fh.read())
        golden = [record for record in golden if record[0] == "a"][:5]
        d = Deployment(storage=InMemoryStorage())
        for i in range(5):
            d.send(request(f"a{i}"))
            d.run()

        assert d.instances() == 5
        leader = d.replicas[0].replica_id
        # Restated when a value got a line of its own: the same record, its
        # value the text that sat inside the golden one, byte for byte.
        written = [r for r in d.storage.wal(f"{leader}.acceptor").records() if r[0] == "a"]
        assert written == [r[:3] + [stored_text(r[3])] for r in golden]
        accepts = [
            payload for _, dst, payload in d.frames
            if isinstance(payload, Accept) and dst == d.replicas[1].replica_id
        ]
        assert len(accepts) == 5
        for accept, record in zip(accepts, golden):
            body = json.dumps(
                {"sender": leader, "envelope": {
                    "type": "paxos-accept", "instance": record[1], "ballot": record[2]}},
                separators=(",", ":"),
            ).encode("utf-8") + b"\n" + stored_text(record[3])
            assert encode_frame(leader, accept) == struct.pack(">I", len(body)) + body
            assert len(accept.value.entries) == 1


# ------------------------------------------------------------------ the rules
class TestTurnRules:
    # (c) FIFO is the list's
    def test_interleaved_senders_keep_their_own_send_order(self):
        d = Deployment()
        d.warm_up()
        instances = d.instances()
        for i in range(3):
            d.send(request(f"a{i}", sender="client"), sender="client")
            d.send(request(f"b{i}", sender="client-b"), sender="client-b")
        d.run()
        assert d.instances() - instances == 1
        for replica in d.replicas:
            applied = replica.local_deliveries[1:]
            assert sorted(applied) == sorted(f"{c}{i}" for c in "ab" for i in range(3))
            for sender in "ab":
                assert [m for m in applied if m[0] == sender] == [
                    f"{sender}{i}" for i in range(3)
                ]

    # (d) the bound
    def test_a_turn_three_times_the_bound_is_split_by_one_flush(self):
        d = Deployment()
        d.warm_up()
        bound = replica_module._TURN_VALUE_BYTES
        ids = [f"big{i}" for i in range(12)]
        requests = [request(mid, payload_bytes=bound // 4) for mid in ids]
        assert sum(OrderedEnvelope("client", r).size_bytes() for r in requests) >= 3 * bound
        leader = d.replicas[0]
        submitted = []
        submit = leader.smr.submit
        leader.smr.submit = lambda value: (
            submitted.append((d.loop.now, value)), submit(value)
        )
        d.send(*requests)
        d.run()

        assert len(submitted) >= 3
        assert len({at for at, _ in submitted}) == 1  # one flush, nothing deferred
        assert [
            e.envelope.message.msg_id for _, turn in submitted for e in turn.entries
        ] == ids
        for _, turn in submitted[:-1]:
            # Closed by the entry that crossed the bound, not before it.
            assert turn.size_bytes() >= bound > turn.size_bytes() - turn.entries[-1].size_bytes()
        for replica in d.replicas:
            assert replica.local_deliveries == ["warm"] + ids

    # (e) the error rule
    def test_an_entry_that_raises_does_not_take_its_neighbours_along(self):
        d = Deployment()
        d.warm_up()
        instances = d.instances()
        d.send(request("good-0"), request("misrouted", dst=(1,)), request("good-1"))
        errors = []
        while True:
            try:
                if not d.loop.step():
                    break
            except ProtocolError as exc:
                errors.append(str(exc))
        # As loud as an instance of its own, and the same on every replica ...
        assert len(errors) == 3 and all("misrouted" in e for e in errors)
        assert d.instances() - instances == 1
        # ... and no other client's message is lost to it.
        for replica in d.replicas:
            assert replica.local_deliveries == ["warm", "good-0", "good-1"]
            assert replica.smr.applied_count == d.instances()
        assert d.sink.sequence(0) == ["warm", "good-0", "good-1"]

    # (f) crash between on_message and the flush
    def test_a_turn_not_yet_flushed_dies_with_its_replica(self):
        d = Deployment(storage=InMemoryStorage())
        d.warm_up()
        leader = d.replicas[0]
        proposed = leader.smr.stats["proposed"]
        leader.on_message("client", request("lost-0"))
        leader.on_message("client", request("lost-1"))
        assert len(leader._turn) == 2
        d.group.crash_replica(0, d.network)
        d.run()  # the dead incarnation's flush fires, and submits nothing
        assert leader.smr.stats["proposed"] == proposed
        assert not any(isinstance(f, (Accept, ClientCommand)) for f in d.smr_frames())

        restarted = d.group.restart_replica(0, d.network)
        assert restarted.local_deliveries == ["warm"]  # decided values only
        d.run()
        for replica in d.replicas:
            assert replica.local_deliveries == ["warm"]
        # The client hears nothing and asks again: exactly once, everywhere.
        d.send(request("lost-0"), request("lost-1"), to=d.replicas.index(d.group.leader))
        d.run()
        for replica in d.replicas:
            assert replica.local_deliveries == ["warm", "lost-0", "lost-1"]
        assert d.sink.sequence(0) == ["warm", "lost-0", "lost-1"]

    # (g) a follower's turn
    def test_a_followers_turn_is_forwarded_as_one_command(self):
        d = Deployment()
        d.warm_up()
        instances = d.instances()
        ids = ["f0", "f1", "f2"]
        d.send(*(request(mid) for mid in ids), to=1)
        d.run()
        (command,) = [f for f in d.smr_frames() if isinstance(f, ClientCommand)]
        assert [e.envelope.message.msg_id for e in command.payload.entries] == ids
        assert d.instances() - instances == 1
        for replica in d.replicas:
            assert replica.local_deliveries == ["warm"] + ids

    def test_smr_messages_do_not_wait_for_the_flush(self):
        replica = Deployment().replicas[1]
        value = Turn((OrderedEnvelope("client", request("m0")),))
        replica.on_message("group-0-replica-0", Accept(0, replica.smr.ballot, value))
        assert replica.smr.acceptor.accepted(0) is not None and not replica._turn


# ------------------------------------------------------------- (h) over real TCP
def _counter(scrape, name):
    return sum(
        float(value)
        for value in re.findall(rf"^{name}{{[^}}]*}} (\S+)$", scrape, flags=re.MULTILINE)
    )


class TestTurnsOverTcp:
    def test_five_frames_in_one_write_are_one_instance(self, tmp_path):
        spec = ClusterSpec(
            groups=[0], replication=1, storage_root=str(tmp_path),
            addresses=[(replica_node(0, 0), "127.0.0.1", 0)],
        )
        ids = [f"m{i}" for i in range(5)]

        async def scenario():
            server = ReplicaServer(spec, 0, 0)
            host, port = await server.start()
            try:
                _, writer = await asyncio.open_connection(host, port)
                writer.write(b"".join(encode_frame("client", request(mid)) for mid in ids))
                await writer.drain()
                for _ in range(200):
                    if len(server.replica.local_deliveries) == len(ids):
                        break
                    await asyncio.sleep(0.01)
                _, delivered = await _http_get(host, port, "/delivered?full=1")
                _, ready = await _http_get(host, port, "/ready")
                _, metrics = await _http_get(host, port, "/metrics")
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()
            return json.loads(delivered), json.loads(ready), metrics.decode("utf-8")

        delivered, ready, metrics = asyncio.run(scenario())
        assert delivered["sequence"] == ids
        assert _counter(metrics, "smr_committed_total") == 1
        assert _counter(metrics, "smr_applied_envelopes_total") == 5
        assert ready["applied"] == 1  # instances, not envelopes

    def test_a_running_cluster_reports_more_envelopes_than_instances(self, tmp_path):
        async def scenario():
            async with ProcessCluster(
                groups=1, replication=3, storage_root=str(tmp_path)
            ) as cluster:
                client = await cluster.new_client("burst-client")
                # Twenty requests sent in one event-loop turn leave in one
                # socket write and reach the leader in one read.
                await asyncio.gather(
                    *(client.multicast([0], payload={"seq": i}) for i in range(20))
                )
                await cluster.await_group_convergence(0, min_count=20)
                return await cluster.scrape(0, 0)

        metrics = asyncio.run(scenario())
        envelopes = _counter(metrics, "smr_applied_envelopes_total")
        committed = _counter(metrics, "smr_committed_total")
        assert envelopes == 20 and 0 < committed < envelopes


# ------------------------------------- satellite: a catch-up reply is bounded by size
class TestCatchupReplySize:
    def test_large_decisions_are_chunked_under_the_frame_cap(self):
        # 2,048 decisions of the benchmark's batched shape encode to 43 MB:
        # as one CatchupReply, encode_frame refused it and the rejoiner was
        # never answered.
        members = [
            Message(msg_id=f"m{i}", dst=frozenset({0}), sender="c", payload="x" * 64)
            for i in range(128)
        ]
        value = Turn((OrderedEnvelope(
            "client", FlexCastBatch(message=Message.batch_of(members, batch_id="b"))
        ),))
        n = 2_100
        outbox = RecordingTransport()
        codec = {"encode_value": lambda turn: turn.text, "decode_value": None}
        server = MultiPaxosReplica(
            "r1", ["r0", "r1"], outbox, apply=lambda instance, value: None, **codec
        )
        server.on_message("r0", CatchupReply(entries=tuple((i, value) for i in range(n))))
        assert server.applied_count == n

        server.on_message("r0", CatchupRequest(from_instance=0, from_replica="r0"))
        replies = [payload for _, payload in outbox.sent]
        frames = [encode_frame("r1", reply) for reply in replies]
        assert len(frames) > 2 and max(map(len, frames)) < MAX_FRAME_BYTES // 4
        assert server.stats["catchup_entries_sent"] == n

        rejoiner = MultiPaxosReplica(
            "r0", ["r0", "r1"], RecordingTransport(), apply=lambda instance, value: None, **codec
        )
        for frame in frames:
            rejoiner.on_message(*decode_frame(frame[4:]))
        assert rejoiner.log == server.log


# ------------------------- (i) every fault placement around a burst and two singles
#: (virtual ms, ids sent at that instant): a burst of four, then two singles.
ARRIVALS = ((0.0, ("m0", "m1", "m2", "m3")), (9.0, ("m4",)), (18.0, ("m5",)))
ALL_IDS = [mid for _, ids in ARRIVALS for mid in ids]


class BurstRun(Deployment):
    """The fault-free run is: a turn of four, two turns of one.  Faults are
    placed at delivery boundaries (boundary ``k`` = after the ``k``-th message
    of the run has been handled, client requests included)."""

    def __init__(self):
        super().__init__(storage=InMemoryStorage())
        self.pre_crash = {}
        self.restarts = []
        for at, ids in ARRIVALS:
            self.loop.schedule_at(at, lambda ids=ids: self.client_sends(ids))

    def client_sends(self, ids):
        # Clients follow the leader the failure detector names (proc.py
        # routes to replica 0; the fuzz harness does what is done here).
        self.send(*(request(mid) for mid in ids), to=self.replicas.index(self.group.leader))

    def advance(self, boundary=None, budget=5_000):
        for _ in range(budget):
            if boundary is not None and len(self.frames) >= boundary:
                return True
            if not self.loop.step():
                return True
        return False

    def inject(self, fault):
        """Returns False when the fault has nothing to act on here."""
        crashed = sorted(self.group._crashed_indices)
        live = [i for i in range(3) if i not in crashed]
        if fault == "restart":
            if not crashed:
                return False
            restarted = self.group.restart_replica(crashed[0], self.network)
            self.restarts.append((crashed[0], restarted))
            return True
        if len(live) < 3:
            return False  # keep a majority: one crash at a time
        leader = self.replicas.index(self.group.leader)
        victim = leader if fault == "crash-leader" else max(i for i in live if i != leader)
        self.pre_crash[victim] = list(self.replicas[victim].local_deliveries)
        self.group.crash_replica(victim, self.network)
        return True


def check_burst_schedule(placements):
    run = BurstRun()
    for boundary, fault in placements:
        assert run.advance(boundary)
        if not run.inject(fault):
            return None
    assert run.advance(), f"{placements}: did not settle"
    boundaries = len(run.frames)
    label = f"{placements}: {[r.local_deliveries for r in run.replicas]}"

    def safety():
        longest = max((r.local_deliveries for r in run.replicas), key=len)
        for replica in run.replicas:
            sequence = replica.local_deliveries
            assert sequence == longest[: len(sequence)], label
            assert len(set(sequence)) == len(sequence), label
        assert set(longest) <= set(ALL_IDS), label
        return longest

    safety()
    # Everybody recovers; the client asks once more for what it never heard of.
    while run.inject("restart"):
        pass
    assert run.advance(), label
    missing = [mid for mid in ALL_IDS if mid not in run.sink.sequence(0)]
    run.client_sends(missing)
    assert run.advance(), label
    longest = safety()
    assert sorted(longest) == sorted(ALL_IDS), label
    assert sorted(run.sink.sequence(0)) == sorted(ALL_IDS), label  # reported once each
    for replica in run.replicas:
        assert replica.local_deliveries == longest, label
    for index, restarted in run.restarts:
        if run.replicas[index] is restarted:
            check_recovery(
                run.pre_crash[index], restarted.local_deliveries,
                reference=longest, replica=restarted.replica_id,
            ).raise_if_failed()
    return boundaries


class TestEveryFaultPlacementWithABurst:
    def test_crash_and_restart_at_every_delivery_boundary(self):
        baseline = check_burst_schedule(())
        schedules = 1
        for first in range(baseline + 1):
            for crash in ("crash-leader", "crash-follower"):
                length = check_burst_schedule(((first, crash),))
                schedules += 1
                for second in range(first, min(length, first + baseline) + 1):
                    done = check_burst_schedule(((first, crash), (second, "restart")))
                    schedules += done is not None
        print(f"burst fault-placement schedules checked: {schedules}")
        assert schedules > 500
