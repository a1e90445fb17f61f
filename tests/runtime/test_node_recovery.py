"""Runtime recovery: GroupServer/LocalCluster restarting from durable storage."""

from __future__ import annotations

import asyncio

from repro.core.flexcast import FlexCastProtocol
from repro.overlay.cdag import CDagOverlay
from repro.runtime.cluster import LocalCluster
from repro.runtime.node import GroupServer
from repro.storage import FileStorage, InMemoryStorage


def run(coro):
    return asyncio.run(coro)


class TestGroupServerRecovery:
    def test_cold_start_recovers_nothing(self):
        protocol = FlexCastProtocol(CDagOverlay([0, 1]))
        server = GroupServer(
            group_id=0, protocol=protocol, addresses={}, storage=InMemoryStorage()
        )
        assert server.recovered_deliveries == 0

    def test_restarted_server_resumes_delivered_history(self):
        storage = InMemoryStorage()

        async def first_incarnation():
            protocol = FlexCastProtocol(CDagOverlay([0, 1]))
            cluster = LocalCluster(protocol, storage={0: storage, 1: InMemoryStorage()})
            async with cluster:
                client = await cluster.new_client("c1")
                for _ in range(3):
                    await client.multicast([0, 1])
                return cluster.delivered_at(0)

        delivered = run(first_incarnation())
        assert len(delivered) == 3

        # "Crash": the whole cluster object is gone; only storage survives.
        protocol = FlexCastProtocol(CDagOverlay([0, 1]))
        reborn = GroupServer(group_id=0, protocol=protocol, addresses={}, storage=storage)
        assert reborn.recovered_deliveries == 3
        for msg_id in delivered:
            assert msg_id in reborn.group.history
            assert reborn.group.has_delivered(msg_id)
        assert reborn.group.history.last_delivered == delivered[-1]

    def test_restarted_cluster_keeps_delivering(self, tmp_path):
        storage = {
            0: FileStorage(str(tmp_path / "g0")),
            1: FileStorage(str(tmp_path / "g1")),
        }

        async def incarnation(n_messages):
            protocol = FlexCastProtocol(CDagOverlay([0, 1]))
            cluster = LocalCluster(protocol, storage=storage)
            async with cluster:
                client = await cluster.new_client("c1")
                for _ in range(n_messages):
                    await client.multicast([0, 1])
                return (
                    cluster.delivered_at(0),
                    {g: s.recovered_deliveries for g, s in cluster.servers.items()},
                )

        first, recovered_first = run(incarnation(2))
        assert recovered_first == {0: 0, 1: 0}
        second, recovered_second = run(incarnation(2))
        # Both groups restored the first incarnation's deliveries from disk
        # and kept going: new deliveries extend, never repeat, the old ones.
        assert recovered_second == {0: 2, 1: 2}
        assert len(second) == 2
        assert not set(first) & set(second)
