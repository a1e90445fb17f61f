"""Tests for flush-based garbage collection (§4.3)."""

from dataclasses import replace

import pytest

from repro.core.flexcast import FlexCastGroup, FlexCastProtocol
from repro.core.garbage import FlushCoordinator
from repro.core.message import ClientRequest, Message
from repro.fuzz.harness import run_scenario
from repro.fuzz.profiles import apply_profile
from repro.fuzz.workload import generate_scenario
from repro.overlay.cdag import CDagOverlay
from repro.protocols.base import RecordingSink
from repro.sim.events import EventLoop
from repro.sim.latencies import LatencyMatrix
from repro.sim.network import Network
from repro.sim.transport import SimTransport

A, B, C = "A", "B", "C"


def deploy():
    loop = EventLoop()
    matrix = LatencyMatrix(matrix=[[0.1, 5, 5], [5, 0.1, 5], [5, 5, 0.1]], names=list("abc"))
    network = Network(loop, matrix)
    overlay = CDagOverlay([A, B, C])
    sink = RecordingSink()
    groups = {}
    for site, gid in enumerate([A, B, C]):
        group = FlexCastGroup(gid, overlay, SimTransport(network, gid), sink)
        groups[gid] = group
        network.register(gid, site=site, handler=group.on_envelope)
    return loop, network, overlay, groups, sink


class TestFlushCoordinator:
    def test_flush_now_submits_a_flush_message_to_all_groups(self):
        loop, network, overlay, groups, sink = deploy()
        submitted = []
        coordinator = FlushCoordinator(
            loop, groups=[A, B, C], submit=submitted.append, interval_ms=100
        )
        coordinator.flush_now()
        assert len(submitted) == 1
        flush = submitted[0]
        assert flush.is_flush and flush.dst == frozenset({A, B, C})
        assert coordinator.flushes_sent == 1

    def test_periodic_flushing_until_stopped(self):
        loop, *_ = deploy()
        submitted = []
        coordinator = FlushCoordinator(
            loop, groups=[A, B], submit=submitted.append, interval_ms=50
        )
        coordinator.start()
        assert coordinator.running
        loop.run(until=175)
        coordinator.stop()
        loop.run(until=500)
        assert len(submitted) == 3
        assert not coordinator.running

    def test_start_is_idempotent(self):
        loop, *_ = deploy()
        coordinator = FlushCoordinator(loop, groups=[A], submit=lambda m: None, interval_ms=50)
        coordinator.start()
        coordinator.start()
        loop.run(until=60)
        assert coordinator.flushes_sent == 1

    def test_requires_groups(self):
        with pytest.raises(ValueError):
            FlushCoordinator(EventLoop(), groups=[], submit=lambda m: None)


class TestHistoryPruning:
    def _run_workload(self, groups, loop, count=10):
        for i in range(count):
            groups[A].on_client_request(Message(msg_id=f"w{i}", dst=frozenset({A, C})))
        loop.run_until_idle()

    def test_flush_prunes_histories_at_every_group(self):
        loop, network, overlay, groups, sink = deploy()
        self._run_workload(groups, loop)
        size_before = groups[C].history_size()
        assert size_before >= 10
        flush = Message.create([A, B, C], is_flush=True, payload_bytes=8)
        groups[overlay.lca(flush.dst)].on_client_request(flush)
        loop.run_until_idle()
        assert groups[C].history_size() < size_before
        assert groups[A].history_size() < size_before
        assert groups[C].stats["gc_pruned"] > 0

    def test_ordering_still_correct_after_gc(self):
        loop, network, overlay, groups, sink = deploy()
        self._run_workload(groups, loop, count=5)
        flush = Message.create([A, B, C], is_flush=True)
        groups[A].on_client_request(flush)
        loop.run_until_idle()
        # Messages multicast after the flush still respect ordering.
        for i in range(5):
            groups[A].on_client_request(Message(msg_id=f"post{i}", dst=frozenset({A, C})))
        loop.run_until_idle()
        c_sequence = sink.sequence(C)
        post = [m for m in c_sequence if m.startswith("post")]
        assert post == [f"post{i}" for i in range(5)]

    def test_forgotten_messages_not_resurrected_by_late_histories(self):
        loop, network, overlay, groups, sink = deploy()
        self._run_workload(groups, loop, count=3)
        flush = Message.create([A, B, C], is_flush=True)
        groups[A].on_client_request(flush)
        loop.run_until_idle()
        forgotten = groups[C].history.forgotten_count
        assert forgotten > 0
        # Merging a delta that mentions a pruned message must not re-add it.
        from repro.core.message import HistoryDelta

        groups[C].history.merge_delta(
            HistoryDelta(vertices=(("w0", frozenset({A, C})),))
        )
        assert "w0" not in groups[C].history


class TestCollectionPrecondition:
    """``History.collect_garbage`` empties the journal, which no peer may
    still need as a slice.  That holds because a flush is addressed to every
    group and ``a_deliver`` fans it out to every descendant before it
    collects: each peer this group has sent to was just shipped the current
    version, both journals' positions.  The victims are closed under
    "depends on", so no survivor's successors name one.  Pinned over fuzz
    runs with a flush every 100 ms."""

    @pytest.mark.parametrize("profile", ("none", "dup", "cluster-crash-restart"))
    def test_every_peer_sent_to_is_at_the_version_when_a_collection_starts(
        self, profile, monkeypatch
    ):
        collect = FlexCastGroup._garbage_collect
        collections, faults = [], []

        def checked(group, flush):
            history = group.history
            version = (history.version, history.vertex_version)
            behind = {
                peer: (channel.shipped, channel.shipped_vertices)
                for peer, channel in group.channels.items()
                if channel.sent
                and (channel.shipped, channel.shipped_vertices) != version
            }
            if behind:
                faults.append((group.group_id, flush.msg_id, version, behind))
            collect(group, flush)
            if history.journal_len:
                faults.append((group.group_id, flush.msg_id, "journal left"))
            named = set().union(*history.successors.values())
            if any(map(history.is_forgotten, named)):
                faults.append((group.group_id, flush.msg_id, "victim left"))
            collections.append(flush.msg_id)

        monkeypatch.setattr(FlexCastGroup, "_garbage_collect", checked)
        for seed in range(1, 11):
            scenario = apply_profile(generate_scenario(seed, profile), profile)
            result = run_scenario(replace(scenario, gc_interval_ms=100.0))
            assert result.ok, (seed, result.violations)
        assert faults == []
        assert len(collections) > 100
