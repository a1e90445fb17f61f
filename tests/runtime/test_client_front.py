"""The contract of :class:`AsyncMulticastClient`, the asyncio front of
:class:`~repro.core.client.MulticastClient`: it awaits what its client
tracks and keeps nothing once a call has finished, either way."""

import asyncio

import pytest

from repro.core.message import ClientResponse, FlexCastBatch

from .conftest import ReplicaCluster


def run(coro):
    return asyncio.run(coro)


def assert_holds_nothing(front):
    assert front.client.inflight == {}
    assert front.client.completed == []
    assert front._waiters == {}


def test_a_timed_out_multicast_is_dropped_and_its_late_responses_ignored(tmp_path):
    async def scenario():
        async with ReplicaCluster(2, str(tmp_path)) as cluster:
            front = await cluster.new_client("client-1")
            await cluster.servers[1].stop()
            with pytest.raises(asyncio.TimeoutError):
                await front.multicast([0, 1], timeout=0.3)
            assert_holds_nothing(front)
            for group in (0, 1):
                front.handle_frame(group, ClientResponse("client-1-1", group))
            assert_holds_nothing(front)

    run(scenario())


def test_concurrent_multicasts_each_resolve_with_every_destination(tmp_path):
    async def scenario():
        async with ReplicaCluster(3, str(tmp_path)) as cluster:
            front = await cluster.new_client("client-1")
            shapes = [[0], [1, 2], [0, 2], [0, 1, 2]] * 5
            results = await asyncio.gather(
                *(front.multicast(dst, payload=i) for i, dst in enumerate(shapes))
            )
            for dst, latencies in zip(shapes, results):
                assert set(latencies) == set(dst)
                assert all(ms >= 0 for ms in latencies.values())
            assert_holds_nothing(front)

    run(scenario())


def test_after_multicasts_and_a_batch_the_front_holds_no_finished_call(tmp_path):
    async def scenario():
        async with ReplicaCluster(2, str(tmp_path)) as cluster:
            front = await cluster.new_client("client-1")
            for dst in ([0, 1], [0], [1], [0, 1]):
                await front.multicast(dst)
            await front.multicast_batch([0, 1], payloads=["a", "b", "c"])
            assert_holds_nothing(front)

    run(scenario())


def test_messages_and_carriers_are_named_by_the_client(tmp_path):
    async def scenario():
        async with ReplicaCluster(2, str(tmp_path)) as cluster:
            front = await cluster.new_client("client-1")
            sent = []
            send = front.client._send_request
            front.client._send_request = lambda g, r: (sent.append(r), send(g, r))
            await front.multicast([0, 1])
            first = await front.multicast_batch([0, 1], payloads=["a", "b"])
            await front.multicast([0])
            second = await front.multicast_batch([0, 1], payloads=["c"])
            assert list(first) == ["client-1-2", "client-1-3"]
            assert list(second) == ["client-1-5"]
            carriers = [r.message.msg_id for r in sent if isinstance(r, FlexCastBatch)]
            assert carriers == ["client-1-b1", "client-1-b2"]
            assert cluster.delivered_at(0) == [f"client-1-{n}" for n in range(1, 6)]

    run(scenario())
