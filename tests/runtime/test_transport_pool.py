"""Pooled-transport behaviour: reuse, endpoint sharing, stale-retry, close,
and the per-turn cost of the wire (one write per endpoint per event-loop turn,
one encode per broadcast) with the rules that keep it FIFO and duplicate-free."""

import asyncio

import pytest

import repro.runtime.transport as transport_module
from repro.core.flexcast import FlexCastProtocol
from repro.core.message import NodeHello
from repro.obs import Observability
from repro.overlay.cdag import CDagOverlay
from repro.runtime.cluster import LocalCluster
from repro.runtime.codec import encode_frame
from repro.runtime.node import FrameServer
from repro.runtime.transport import AsyncioTransport
from repro.sim.latencies import LatencyMatrix


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
        # pooled socket — a load generator may register thousands of
        # logical client ids against a single response port.
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


def hello(i):
    return NodeHello(node_id=f"n{i}", host="h", port=i)


def ports(server):
    return [envelope.port for _, envelope in server.frames]


async def settle(transport, submitted, timeout=5.0):
    """Wait until every submitted frame is accounted for as sent or failed."""
    deadline = asyncio.get_running_loop().time() + timeout
    while transport.sent_frames + transport.failed_sends < submitted:
        assert asyncio.get_running_loop().time() < deadline, (
            transport.sent_frames, transport.failed_sends, transport.queued_frames
        )
        await asyncio.sleep(0.01)


def record_writes(transport, server):
    """Wrap the pooled ``StreamWriter.write`` of ``server``'s endpoint."""
    writer = transport._pool[(server.host, server.port)]
    writes, real = [], writer.write

    def write(data):
        writes.append(bytes(data))
        real(data)

    writer.write = write
    return writes


class TestPerTurnCost:
    """Exact counts: what one event-loop turn costs on the wire."""

    def test_one_turn_of_sends_is_one_socket_write(self):
        async def scenario():
            server = RecordingServer()
            await server.start()
            transport = make_transport(server)
            transport.send("peer", hello(0))
            await drain(server, 1)
            writes = record_writes(transport, server)
            for i in range(1, 51):
                transport.send("peer", hello(i))
            await drain(server, 51)
            assert len(writes) == 1
            assert writes[0] == b"".join(
                encode_frame("pool-test", hello(i)) for i in range(1, 51)
            )
            assert ports(server) == list(range(51))
            assert (transport.sent_frames, transport.writes) == (51, 2)
            await transport.aclose()
            await server.stop()

        run(scenario())

    def test_logical_ids_on_one_endpoint_share_the_write(self):
        async def scenario():
            server = RecordingServer()
            await server.start()
            aliases = {f"alias-{i}": (server.host, server.port) for i in range(10)}
            transport = make_transport(server, extra=aliases)
            transport.send("peer", hello(0))
            await drain(server, 1)
            writes = record_writes(transport, server)
            for i in range(10):
                transport.send(f"alias-{i}", hello(i + 1))
            await drain(server, 11)
            assert len(writes) == 1
            assert ports(server) == list(range(11))
            await transport.aclose()
            await server.stop()

        run(scenario())

    def test_broadcast_of_one_object_is_encoded_once(self, monkeypatch):
        calls = []

        def counting(sender, payload):
            calls.append(payload)
            return encode_frame(sender, payload)

        # The transport must look the name up in its module at call time:
        # the benchmark's tracer patches it exactly like this.
        monkeypatch.setattr(transport_module, "encode_frame", counting)

        async def scenario():
            servers = [RecordingServer() for _ in range(3)]
            addresses = {}
            for i, server in enumerate(servers):
                await server.start()
                addresses[i] = (server.host, server.port)
            transport = AsyncioTransport(node_id="pool-test", addresses=addresses)
            payload = hello(7)
            for i in range(3):
                transport.send(i, payload)
            assert len(calls) == 1
            frames = [link.queue[-1][1] for link in transport._links.values()]
            assert frames == [encode_frame("pool-test", payload)] * 3
            # Equal is not enough — only the very same object is known not
            # to have changed.
            transport.send(0, hello(7))
            assert len(calls) == 2
            for server in servers:
                await drain(server, 1)
                assert server.frames[0] == ("pool-test", payload)
            await drain(servers[0], 2)
            await transport.aclose()
            for server in servers:
                await server.stop()

        run(scenario())

    def test_frame_server_handles_back_to_back_frames_of_one_segment(self):
        async def scenario():
            server = RecordingServer()
            await server.start()
            _, writer = await asyncio.open_connection(server.host, server.port)
            writer.write(b"".join(encode_frame("raw", hello(i)) for i in range(40)))
            await writer.drain()
            await drain(server, 40)
            assert ports(server) == list(range(40))
            assert server.frames_received == 40
            assert server.connections == 1
            writer.close()
            await writer.wait_closed()
            await server.stop()

        run(scenario())


class TestQueueRules:
    """FIFO under injected delay, retry without duplicates, dead peers, close."""

    def test_injected_delay_keeps_send_order_and_holds_every_frame(self):
        delay_s = 0.03

        class TimedServer(RecordingServer):
            def handle_frame(self, sender, envelope):
                super().handle_frame(sender, envelope)
                arrived[envelope.port] = asyncio.get_running_loop().time()

        arrived, sent_at = {}, {}

        async def scenario():
            server = TimedServer()
            await server.start()
            transport = AsyncioTransport(
                node_id="pool-test",
                addresses={"peer": (server.host, server.port)},
                latencies=LatencyMatrix(matrix=[[0, delay_s * 1000], [delay_s * 1000, 0]]),
                sites={"pool-test": 0, "peer": 1},
            )
            for i in range(200):
                sent_at[i] = asyncio.get_running_loop().time()
                transport.send("peer", hello(i))
                if i % 25 == 24:
                    # Several bursts, the later ones queued while the writer
                    # sleeps on the head of an earlier one.
                    await asyncio.sleep(0.004)
            await drain(server, 200)
            assert ports(server) == list(range(200))
            early = [i for i in range(200) if arrived[i] - sent_at[i] < delay_s - 1e-3]
            assert early == []
            assert transport.failed_sends == 0
            await transport.aclose()
            await server.stop()

        run(scenario())

    def test_peer_restart_mid_burst_never_duplicates_or_reorders(self):
        async def scenario():
            server = RecordingServer()
            host, port = await server.start()
            transport = make_transport(server)
            total = 400

            async def burst():
                for i in range(total):
                    transport.send("peer", hello(i))
                    if i % 10 == 9:
                        await asyncio.sleep(0.001)

            sender = asyncio.ensure_future(burst())
            await asyncio.sleep(0.01)
            await server.stop()
            reborn = RecordingServer()
            reborn.host, reborn.port = host, port
            await reborn.start()
            await sender
            await settle(transport, total)
            await asyncio.sleep(0.05)  # frames in flight reach their server
            received = ports(server) + ports(reborn)
            assert len(set(received)) == len(received)
            assert received == sorted(received)
            assert transport.sent_frames + transport.failed_sends == total
            assert transport.queued_frames == 0
            assert len(received) <= transport.sent_frames
            # Both incarnations were reached: the burst really spanned the restart.
            assert server.frames and reborn.frames
            assert received[-1] == total - 1
            await transport.aclose()
            await reborn.stop()

        run(scenario())

    def test_down_peer_burst_costs_one_connect_and_no_queue(self, monkeypatch):
        attempts = []
        real_open = asyncio.open_connection

        async def counting_open(*args, **kwargs):
            attempts.append(args)
            return await real_open(*args, **kwargs)

        monkeypatch.setattr(asyncio, "open_connection", counting_open)

        async def scenario():
            server = RecordingServer()
            host, port = await server.start()
            await server.stop()
            transport = AsyncioTransport(
                node_id="pool-test", addresses={"peer": (host, port)}
            )
            for i in range(1000):
                transport.send("peer", hello(i))
            await settle(transport, 1000)
            assert transport.failed_sends == 1000
            assert transport.sent_frames == 0
            assert transport.queued_frames == 0
            assert len(attempts) == 1
            await transport.aclose()

        run(scenario())

    def test_nothing_outlives_aclose(self):
        async def quiesce(before):
            deadline = asyncio.get_running_loop().time() + 2.0
            while asyncio.all_tasks() != before:
                assert asyncio.get_running_loop().time() < deadline, (
                    asyncio.all_tasks() - before
                )
                await asyncio.sleep(0.01)

        async def scenario():
            server = RecordingServer()
            await server.start()
            before = asyncio.all_tasks()

            # No connection is open yet: aclose() connects to nobody, so the
            # server sees the empty prefix and every frame counts as failed.
            transport = make_transport(server)
            for i in range(200):
                transport.send("peer", hello(i))
            await transport.aclose()
            assert transport._pool == {}
            assert (transport.sent_frames, transport.failed_sends) == (0, 200)
            await quiesce(before)
            assert server.frames == [] and server.connections == 0

            # With one open, what is queued is flushed to it before it closes.
            transport.send("peer", hello(0))
            await drain(server, 1)
            for i in range(1, 201):
                transport.send("peer", hello(i))
            await transport.aclose()
            assert transport._pool == {}
            assert transport.queued_frames == 0
            await drain(server, 201)
            assert ports(server) == list(range(201))
            await quiesce(before)
            await server.stop()

        run(scenario())


class TestTransportMetrics:
    def test_transport_series_on_metrics(self):
        async def scenario():
            protocol = FlexCastProtocol(CDagOverlay([0, 1]))
            async with LocalCluster(protocol, obs=Observability()) as cluster:
                client = await cluster.new_client("client-1")
                await client.multicast([0, 1], payload="order")
                body = (await cluster.scrape())[0]
                for series in (
                    "transport_frames_sent_total",
                    "transport_writes_total",
                    "transport_failed_sends_total",
                    "transport_reconnects_total",
                    "transport_queued_frames",
                ):
                    assert f'{series}{{group="0"}}' in body, series
                sent = cluster.servers[0].transport.sent_frames
                assert sent >= 1
                assert f'transport_frames_sent_total{{group="0"}} {sent}' in body

        run(scenario())
