"""End-to-end observability: instrumented protocol, live export.

Covers the export paths — Prometheus text over each replica's frame port
and the JSON snapshot — plus the leak gauges the fuzz oracle reads.
"""

import asyncio

from repro.core.flexcast import FlexCastGroup
from repro.core.message import Message
from repro.obs import Observability, STAGE_DELIVER, STAGE_ENQUEUE
from repro.overlay.cdag import CDagOverlay
from repro.protocols.base import RecordingSink
from repro.runtime.client import AsyncMulticastClient
from repro.runtime.node import _http_get
from repro.sim.transport import RecordingTransport
from runtime.conftest import ReplicaCluster


def run(coro):
    return asyncio.run(coro)


def make_group(obs=None, group_id=0):
    group = FlexCastGroup(
        group_id, CDagOverlay([0, 1, 2]), RecordingTransport(group_id), RecordingSink()
    )
    if obs is not None:
        group.attach_obs(obs)
    return group


class TestInstrumentedGroup:
    def test_counters_track_protocol_stats(self):
        obs = Observability()
        group = make_group(obs)
        # Global message from the root: the diff fan-out sends MSGs down.
        group.on_client_request(Message(msg_id="m1", dst=frozenset({0, 1, 2})))
        snap = obs.registry.snapshot()
        assert snap["counters"]['group_delivered_total{group="0"}'] == 1
        assert snap["counters"]['flexcast_msgs_sent_total{group="0"}'] >= 1

    def test_leak_gauges_read_zero_on_clean_state(self):
        obs = Observability()
        group = make_group(obs)
        group.on_client_request(Message(msg_id="m1", dst=frozenset({0})))
        snap = obs.registry.snapshot()
        assert snap["gauges"]['flexcast_leaked_pending_entries{group="0"}'] == 0
        assert snap["gauges"]['flexcast_member_index_orphans{group="0"}'] == 0

    def test_trace_covers_enqueue_and_deliver(self):
        obs = Observability.with_tracing()
        group = make_group(obs)
        group.on_client_request(Message(msg_id="m1", dst=frozenset({0})))
        stages = [e[1] for e in obs.tracer.timeline("m1")]
        assert STAGE_ENQUEUE in stages
        assert STAGE_DELIVER in stages

    def test_diff_size_histogram_populated(self):
        obs = Observability()
        group = make_group(obs)
        # Global message: descendants get diffs carrying the new vertex.
        group.on_client_request(Message(msg_id="m1", dst=frozenset({0, 1, 2})))
        hist = obs.registry.snapshot()["histograms"][
            'flexcast_diff_size_items{group="0"}'
        ]
        assert hist["count"] >= 1


class TestLiveExport:
    def test_metrics_endpoint_and_scrape(self, tmp_path):
        async def scenario():
            async with ReplicaCluster(3, str(tmp_path)) as cluster:
                client = await cluster.new_client("client-1")
                await client.multicast([0, 2], payload="order")
                bodies = {}
                for gid, server in cluster.servers.items():
                    status, body = await _http_get(server.host, server.port, "/metrics")
                    assert status == 200
                    bodies[gid] = body.decode("utf-8")
                # Each replica serves its own registry, labelled with its
                # group and replica.
                assert "# TYPE group_delivered_total counter" in bodies[0]
                for gid, delivered in ((0, 1), (1, 0), (2, 1)):
                    labels = f'{{group="{gid}"}}'
                    assert f"group_delivered_total{labels} {delivered}" in bodies[gid]
                    assert "server_frames_received_total{" in bodies[gid]

        run(scenario())

    def test_unknown_path_is_404_and_frames_still_work(self, tmp_path):
        async def scenario():
            async with ReplicaCluster(2, str(tmp_path)) as cluster:
                server = cluster.servers[0]
                status, _ = await _http_get(server.host, server.port, "/nope")
                assert status == 404
                # The HTTP detour must not break the frame protocol.
                client = await cluster.new_client("client-1")
                latencies = await client.multicast([0, 1])
                assert set(latencies) == {0, 1}

        run(scenario())

    def test_metrics_404_without_observability(self):
        async def scenario():
            # A client serves frames and HTTP on its port but carries no hub.
            client = AsyncMulticastClient("client-1", protocol=None, addresses={})
            host, port = await client.start()
            try:
                status, _ = await _http_get(host, port, "/metrics")
            finally:
                await client.stop()
            assert status == 404

        run(scenario())
