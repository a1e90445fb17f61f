"""Integration tests for the asyncio/TCP runtime (localhost clusters)."""

import asyncio

import pytest

from repro.core.flexcast import FlexCastProtocol
from repro.core.message import ClientRequest, Message
from repro.core.timestamps import Exposure
from repro.overlay.cdag import CDagOverlay
from repro.overlay.tree import TreeOverlay
from repro.protocols.hierarchical import HierarchicalProtocol
from repro.protocols.skeen import SkeenProtocol
from repro.overlay.base import CompleteGraphOverlay
from repro.runtime.cluster import LocalCluster


def run(coro):
    return asyncio.run(coro)


class TestFlexCastCluster:
    def test_multicast_reaches_all_destinations(self):
        async def scenario():
            protocol = FlexCastProtocol(CDagOverlay([0, 1, 2]))
            async with LocalCluster(protocol) as cluster:
                client = await cluster.new_client("client-1")
                latencies = await client.multicast([0, 2], payload="order")
                assert set(latencies) == {0, 2}
                assert all(v >= 0 for v in latencies.values())
                assert cluster.delivered_at(0) == cluster.delivered_at(2)

        run(scenario())

    def test_sequence_of_multicasts_ordered_consistently(self):
        async def scenario():
            protocol = FlexCastProtocol(CDagOverlay([0, 1, 2]))
            async with LocalCluster(protocol) as cluster:
                client = await cluster.new_client("client-1")
                for _ in range(5):
                    await client.multicast([0, 1, 2])
                assert (
                    cluster.delivered_at(0)
                    == cluster.delivered_at(1)
                    == cluster.delivered_at(2)
                )
                assert len(cluster.delivered_at(0)) == 5

        run(scenario())


class TestFifoLinks:
    def test_back_to_back_frames_between_groups_arrive_in_send_order(self):
        # The paper assumes FIFO links between groups (§4.2).  One pooled
        # connection per destination provides them; one task and connection
        # per frame (the removed default) promised no order at all.
        async def scenario():
            protocol = FlexCastProtocol(CDagOverlay([0, 1]))
            async with LocalCluster(protocol) as cluster:
                sent = [f"fifo-{i}" for i in range(200)]
                for msg_id in sent:
                    # A local message is delivered the moment it arrives, so
                    # group 1's delivery order is its arrival order.
                    cluster.servers[0].transport.send(
                        1,
                        ClientRequest(
                            message=Message(
                                msg_id=msg_id, dst=frozenset({1}), sender="nobody"
                            )
                        ),
                    )
                deadline = asyncio.get_running_loop().time() + 10.0
                while len(cluster.delivered_at(1)) < len(sent):
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.01)
                assert cluster.delivered_at(1) == sent
                assert cluster.servers[0].transport.failed_sends == 0

        run(scenario())


class TestBatchedCluster:
    def test_batch_delivered_over_tcp(self):
        async def scenario():
            protocol = FlexCastProtocol(CDagOverlay([0, 1, 2]))
            async with LocalCluster(protocol) as cluster:
                client = await cluster.new_client("client-1")
                latencies = await client.multicast_batch(
                    [0, 2], payloads=["a", "b", "c"]
                )
                # One FlexCastBatch frame, three member messages, each
                # confirmed by both destinations.
                assert len(latencies) == 3
                for responses in latencies.values():
                    assert set(responses) == {0, 2}
                assert cluster.delivered_at(0) == cluster.delivered_at(2)
                assert cluster.delivered_at(0) == list(latencies)
                # Members arrive back-to-back in submission order and no
                # carrier message ever reaches the application.
                delivered = cluster.servers[0].delivered
                assert [m.payload for m in delivered] == ["a", "b", "c"]
                assert all(not m.is_batch for m in delivered)

        run(scenario())

    def test_batched_and_plain_multicasts_interleave(self):
        async def scenario():
            protocol = FlexCastProtocol(CDagOverlay([0, 1, 2]), exposure=Exposure.all())
            async with LocalCluster(protocol) as cluster:
                client = await cluster.new_client("client-1")
                await client.multicast([0, 1], payload="before")
                await client.multicast_batch([0, 1], payloads=["b1", "b2"])
                await client.multicast([0, 1], payload="after")
                assert cluster.delivered_at(0) == cluster.delivered_at(1)
                seq0 = [m.payload for m in cluster.servers[0].delivered]
                assert seq0 == ["before", "b1", "b2", "after"]

        run(scenario())


class TestBaselineClusters:
    def test_skeen_cluster_delivers_everywhere(self):
        async def scenario():
            protocol = SkeenProtocol(CompleteGraphOverlay([0, 1, 2]))
            async with LocalCluster(protocol) as cluster:
                client = await cluster.new_client("client-1")
                latencies = await client.multicast([0, 1, 2])
                assert set(latencies) == {0, 1, 2}

        run(scenario())

    def test_hierarchical_cluster_delivers_only_at_destinations(self):
        async def scenario():
            tree = TreeOverlay(0, {0: [1, 2]})
            protocol = HierarchicalProtocol(tree)
            async with LocalCluster(protocol) as cluster:
                client = await cluster.new_client("client-1")
                latencies = await client.multicast([1, 2])
                assert set(latencies) == {1, 2}
                # The root relayed the message but never delivered it.
                assert cluster.delivered_at(0) == []

        run(scenario())

    def test_timeout_when_destination_is_down(self):
        async def scenario():
            protocol = FlexCastProtocol(CDagOverlay([0, 1]))
            cluster = LocalCluster(protocol)
            await cluster.start()
            try:
                client = await cluster.new_client("client-1")
                await cluster.servers[1].stop()
                with pytest.raises(asyncio.TimeoutError):
                    await client.multicast([0, 1], timeout=0.8)
            finally:
                await cluster.stop()

        run(scenario())
