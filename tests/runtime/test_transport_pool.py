"""Pooled-transport behaviour: reuse, endpoint sharing, stale-retry, close."""

import asyncio

import pytest

from repro.core.message import NodeHello
from repro.runtime.node import FrameServer
from repro.runtime.transport import AsyncioTransport


def run(coro):
    return asyncio.run(coro)


class RecordingServer(FrameServer):
    """Counts frames and remembers them, plus how many connections arrived."""

    def __init__(self):
        super().__init__()
        self.frames = []
        self.connections = 0

    async def _handle_connection(self, reader, writer):
        self.connections += 1
        await super()._handle_connection(reader, writer)

    def handle_frame(self, sender, envelope):
        self.frames.append((sender, envelope))


def make_transport(server, extra=None, pool=True):
    addresses = {"peer": (server.host, server.port)}
    addresses.update(extra or {})
    return AsyncioTransport(node_id="pool-test", addresses=addresses, pool=pool)


async def drain(server, count, timeout=5.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while len(server.frames) < count:
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError(
                f"expected {count} frames, got {len(server.frames)}"
            )
        await asyncio.sleep(0.01)


class TestPooledTransport:
    def test_many_frames_one_connection(self):
        async def scenario():
            server = RecordingServer()
            await server.start()
            transport = make_transport(server)
            for i in range(20):
                transport.send("peer", NodeHello(node_id=f"n{i}", host="h", port=i))
            await drain(server, 20)
            assert server.connections == 1
            assert transport.sent_frames == 20
            assert [env.port for _, env in server.frames] == list(range(20))
            await transport.aclose()
            await server.stop()

        run(scenario())

    def test_logical_ids_share_endpoint_connection(self):
        # Many destination ids mapped to one (host, port) must share one
        # pooled socket — the soak harness registers thousands of logical
        # client ids against a single response-plane port.
        async def scenario():
            server = RecordingServer()
            await server.start()
            aliases = {f"alias-{i}": (server.host, server.port) for i in range(10)}
            transport = make_transport(server, extra=aliases)
            for i in range(10):
                transport.send(f"alias-{i}", NodeHello(node_id="x", host="h", port=i))
            await drain(server, 10)
            assert server.connections == 1
            assert len(transport._pool) == 1
            await transport.aclose()
            await server.stop()

        run(scenario())

    def test_stale_connection_retried_after_peer_restart(self):
        async def scenario():
            server = RecordingServer()
            host, port = await server.start()
            transport = make_transport(server)
            transport.send("peer", NodeHello(node_id="a", host="h", port=1))
            await drain(server, 1)

            # Restart the peer on the same port: the server closes its side,
            # the transport's EOF watcher evicts the stale socket, and the
            # next send goes out on a fresh connection.
            await server.stop()
            reborn = RecordingServer()
            reborn.host, reborn.port = host, port
            await reborn.start()
            await asyncio.sleep(0.05)  # let the EOF reach the watcher
            assert transport._pool == {}

            transport.send("peer", NodeHello(node_id="b", host="h", port=2))
            await drain(reborn, 1)
            assert transport.failed_sends == 0
            assert reborn.frames[0][1].port == 2
            await transport.aclose()
            await reborn.stop()

        run(scenario())

    def test_aclose_empties_pool_and_send_reopens(self):
        async def scenario():
            server = RecordingServer()
            await server.start()
            transport = make_transport(server)
            transport.send("peer", NodeHello(node_id="a", host="h", port=1))
            await drain(server, 1)
            await transport.aclose()
            assert transport._pool == {}
            transport.send("peer", NodeHello(node_id="b", host="h", port=2))
            await drain(server, 2)
            assert server.connections == 2
            await transport.aclose()
            await server.stop()

        run(scenario())

    def test_down_peer_counts_failed_send(self):
        async def scenario():
            server = RecordingServer()
            host, port = await server.start()
            await server.stop()
            transport = AsyncioTransport(
                node_id="pool-test", addresses={"peer": (host, port)}, pool=True
            )
            transport.send("peer", NodeHello(node_id="a", host="h", port=1))
            await asyncio.sleep(0.1)
            assert transport.failed_sends == 1
            assert transport.sent_frames == 0
            await transport.aclose()

        run(scenario())

    def test_pooled_is_the_only_mode(self):
        # ``pool`` survives as a keyword for callers written when a
        # one-connection-per-frame mode existed; it can no longer select it.
        with pytest.raises(ValueError):
            AsyncioTransport(node_id="pool-test", addresses={}, pool=False)
