"""Integration tests for the asyncio/TCP runtime (in-process replica clusters)."""

import asyncio
import json

import pytest

from repro.core.batching import BatchingClient
from repro.core.message import ClientRequest, FlexCastBatch, Message
from repro.runtime.client import AsyncMulticastClient
from repro.runtime.proc import ClusterSpec

from .conftest import ReplicaCluster


def run(coro):
    return asyncio.run(coro)


class TestFlexCastCluster:
    def test_multicast_reaches_all_destinations(self, tmp_path):
        async def scenario():
            async with ReplicaCluster(3, str(tmp_path)) as cluster:
                client = await cluster.new_client("client-1")
                latencies = await client.multicast([0, 2], payload="order")
                assert set(latencies) == {0, 2}
                assert all(v >= 0 for v in latencies.values())
                assert cluster.delivered_at(0) == cluster.delivered_at(2)

        run(scenario())

    def test_sequence_of_multicasts_ordered_consistently(self, tmp_path):
        async def scenario():
            async with ReplicaCluster(3, str(tmp_path)) as cluster:
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
    def test_back_to_back_frames_between_groups_arrive_in_send_order(self, tmp_path):
        # The paper assumes FIFO links between groups (§4.2).  One pooled
        # connection per destination provides them; one task and connection
        # per frame (the removed default) promised no order at all.
        async def scenario():
            async with ReplicaCluster(2, str(tmp_path)) as cluster:
                sent = [f"fifo-{i}" for i in range(200)]
                for msg_id in sent:
                    # A local message is delivered the moment it is ordered,
                    # so group 1's delivery order is its arrival order.
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
    def test_batch_delivered_over_tcp(self, tmp_path):
        async def scenario():
            async with ReplicaCluster(3, str(tmp_path)) as cluster:
                client = await cluster.new_client("client-1")
                latencies = await client.multicast_batch(
                    [0, 2], payloads=["a", "b", "c"]
                )
                # One FlexCastBatch frame, three member messages, each
                # confirmed by both destinations.
                assert len(latencies) == 3
                for responses in latencies.values():
                    assert set(responses) == {0, 2}
                # Members arrive back-to-back in submission order and no
                # carrier message ever reaches the application.
                assert cluster.delivered_at(0) == cluster.delivered_at(2)
                assert cluster.delivered_at(0) == list(latencies)

        run(scenario())

    def test_batched_and_plain_multicasts_interleave(self, tmp_path):
        async def scenario():
            async with ReplicaCluster(3, str(tmp_path)) as cluster:
                client = await cluster.new_client("client-1")
                await client.multicast([0, 1], payload="before")
                batch = await client.multicast_batch([0, 1], payloads=["b1", "b2"])
                await client.multicast([0, 1], payload="after")
                assert cluster.delivered_at(0) == cluster.delivered_at(1)
                seq0 = cluster.delivered_at(0)
                assert len(seq0) == 4 and seq0[1:3] == list(batch)
                # The client names batch members like any other message.
                assert seq0 == [f"client-1-{n}" for n in range(1, 5)]

        run(scenario())


class BatchingFront(AsyncMulticastClient):
    """The front with a :class:`BatchingClient` swapped in (the load
    generator's shape); the test submits to :attr:`batcher` directly."""

    def __init__(self, cluster: ReplicaCluster, max_batch: int, max_delay_ms: float) -> None:
        super().__init__("batcher", cluster.protocol, cluster.spec.address_book())
        #: Every request put on the wire: (loop time in ms, request).
        self.sent = []
        self.batcher = self.client = BatchingClient(
            "batcher",
            cluster.protocol,
            send_request=self._send,
            clock=self.transport.now,
            max_batch=max_batch,
            max_delay_ms=max_delay_ms,
            schedule=self.transport.schedule,
        )

    async def __aenter__(self) -> "BatchingFront":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    def _send(self, group, request) -> None:
        self.sent.append((self.transport.now(), request))
        self.transport.send(group, request)

    async def settled(self) -> None:
        while self.batcher.inflight:
            await asyncio.sleep(0.002)


class TestBatchingClientIdleTrigger:
    """Over real TCP, a window of a second is not a second of latency: a
    submission to a destination set with nothing in flight leaves at once,
    and what gathers behind it leaves when it completes."""

    def test_a_lone_submission_does_not_wait_for_the_timer(self, tmp_path):
        async def scenario():
            async with ReplicaCluster(2, str(tmp_path)) as cluster:
                async with BatchingFront(cluster, 128, 1000.0) as front:
                    started = front.transport.now()
                    front.batcher.multicast([0, 1], payload="solo")
                    await asyncio.wait_for(front.settled(), timeout=5.0)
                    [call] = front.batcher.completed
                    assert max(call.latencies_by_arrival()) < 500.0
                    [(at, request)] = front.sent
                    assert type(request) is ClientRequest and at - started < 100.0

        run(scenario())

    def test_submissions_behind_it_leave_as_one_carrier_when_it_completes(self, tmp_path):
        async def scenario():
            async with ReplicaCluster(2, str(tmp_path)) as cluster:
                async with BatchingFront(cluster, 128, 1000.0) as front:
                    started = front.transport.now()
                    first = front.batcher.multicast([0, 1], payload="first")
                    behind = [front.batcher.multicast([0, 1], payload=i) for i in range(3)]
                    await asyncio.wait_for(front.settled(), timeout=5.0)
                    (_, lone), (at, carrier) = front.sent
                    assert lone.message is first
                    assert isinstance(carrier, FlexCastBatch)
                    assert carrier.message.members == tuple(behind)
                    # It left when the first completed, not when its timer was due.
                    first_call = front.batcher.completed[0]
                    assert first_call.message is first
                    done = first_call.submitted_at + max(first_call.latencies_by_arrival())
                    assert done <= at < started + 500.0
                    assert front.batcher.stats["flush_idle"] == 2
                    assert cluster.delivered_at(0) == cluster.delivered_at(1)
                    assert cluster.delivered_at(0) == [m.msg_id for m in [first, *behind]]

        run(scenario())


class TestUnavailableDestination:
    def test_timeout_when_destination_is_down(self, tmp_path):
        async def scenario():
            async with ReplicaCluster(2, str(tmp_path)) as cluster:
                client = await cluster.new_client("client-1")
                await cluster.servers[1].stop()
                with pytest.raises(asyncio.TimeoutError):
                    await client.multicast([0, 1], timeout=0.8)

        run(scenario())


class TestEmulatedWan:
    """``ClusterSpec.latencies`` puts group g and its replicas at site g."""

    ONE_WAY_MS = 40.0

    def later_response_ms(self, tmp_path, latencies):
        async def scenario():
            async with ReplicaCluster(2, str(tmp_path), latencies=latencies) as cluster:
                client = await cluster.new_client("client-1")
                await client.multicast([0, 1])  # opens every connection
                return max((await client.multicast([0, 1])).values())

        return run(scenario())

    def test_a_global_message_pays_the_inter_site_delay(self, tmp_path):
        wan = [[0.0, self.ONE_WAY_MS], [self.ONE_WAY_MS, 0.0]]
        assert self.later_response_ms(tmp_path, wan) >= self.ONE_WAY_MS

    def test_without_a_matrix_the_same_message_is_at_loopback_speed(self, tmp_path):
        assert self.later_response_ms(tmp_path, None) < self.ONE_WAY_MS / 2


class TestClusterSpecJson:
    def spec(self, latencies):
        return ClusterSpec(
            groups=[0, 1], replication=3, storage_root="/srv/flexcast",
            addresses=[("group-0-replica-0", "127.0.0.1", 7000), (0, "127.0.0.1", 7000)],
            latencies=latencies,
        )

    @pytest.mark.parametrize("latencies", [None, [[0.0, 40.0], [40.0, 0.0]]])
    def test_round_trip(self, latencies):
        spec = self.spec(latencies)
        assert ClusterSpec.from_json(spec.to_json()) == spec

    def test_a_spec_written_without_latencies_still_loads(self):
        data = json.loads(self.spec(None).to_json())
        del data["latencies"]
        assert ClusterSpec.from_json(json.dumps(data)).latencies is None
