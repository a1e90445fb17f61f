"""Unit tests for the simulated network."""

import weakref

import pytest

from repro.sim.events import EventLoop
from repro.sim.latencies import LatencyMatrix
from repro.sim.network import Network, payload_size
from repro.sim.transport import SimTransport


def make_network(jitter=0.0, seed=0):
    loop = EventLoop()
    matrix = LatencyMatrix(
        matrix=[[0.5, 10, 50], [10, 0.5, 30], [50, 30, 0.5]],
        names=["a", "b", "c"],
        local_latency=0.5,
    )
    return loop, Network(loop, matrix, jitter_ms=jitter, seed=seed)


class Sink:
    def __init__(self):
        self.received = []

    def __call__(self, sender, payload):
        self.received.append((sender, payload))


class TestDelivery:
    def test_message_arrives_after_latency(self):
        loop, net = make_network()
        sink = Sink()
        net.register("n0", 0, lambda s, p: None)
        net.register("n1", 1, sink)
        net.send("n0", "n1", "hello")
        loop.run_until_idle()
        assert sink.received == [("n0", "hello")]
        assert loop.now == pytest.approx(10.0)

    def test_same_site_uses_local_latency(self):
        loop, net = make_network()
        sink = Sink()
        net.register("n0", 0, lambda s, p: None)
        net.register("n0b", 0, sink)
        net.send("n0", "n0b", "x")
        loop.run_until_idle()
        assert loop.now == pytest.approx(0.5)

    def test_fifo_per_channel_without_jitter(self):
        loop, net = make_network()
        sink = Sink()
        net.register("n0", 0, lambda s, p: None)
        net.register("n1", 1, sink)
        for i in range(5):
            net.send("n0", "n1", i)
        loop.run_until_idle()
        assert [p for _, p in sink.received] == [0, 1, 2, 3, 4]

    def test_fifo_preserved_with_jitter(self):
        loop, net = make_network(jitter=20.0, seed=3)
        sink = Sink()
        net.register("n0", 0, lambda s, p: None)
        net.register("n1", 1, sink)
        for i in range(50):
            net.send("n0", "n1", i)
        loop.run_until_idle()
        assert [p for _, p in sink.received] == list(range(50))

    def test_unknown_destination_raises(self):
        _, net = make_network()
        net.register("n0", 0, lambda s, p: None)
        with pytest.raises(KeyError):
            net.send("n0", "ghost", "x")

    def test_unknown_sender_raises(self):
        _, net = make_network()
        net.register("n1", 1, lambda s, p: None)
        with pytest.raises(KeyError):
            net.send("ghost", "n1", "x")

    def test_duplicate_registration_rejected(self):
        _, net = make_network()
        net.register("n0", 0, lambda s, p: None)
        with pytest.raises(ValueError):
            net.register("n0", 1, lambda s, p: None)

    def test_out_of_range_site_rejected(self):
        _, net = make_network()
        with pytest.raises(ValueError):
            net.register("n0", 99, lambda s, p: None)

    def test_message_to_unregistered_destination_dropped_silently(self):
        loop, net = make_network()
        sink = Sink()
        net.register("n0", 0, lambda s, p: None)
        net.register("n1", 1, sink)
        net.send("n0", "n1", "x")
        net.unregister("n1")
        loop.run_until_idle()
        assert sink.received == []


class TestTrafficAccounting:
    def test_counts_messages_and_bytes(self):
        loop, net = make_network()
        net.register("n0", 0, lambda s, p: None)
        net.register("n1", 1, lambda s, p: None)
        net.send("n0", "n1", "abcd")
        net.send("n0", "n1", "efghij")
        loop.run_until_idle()
        assert net.traffic("n0").messages_sent == 2
        assert net.traffic("n0").bytes_sent == 10
        assert net.traffic("n1").messages_received == 2
        assert net.traffic("n1").bytes_received == 10
        assert net.traffic("n1").average_received_size() == 5.0
        assert net.total_messages == 2

    def test_kind_breakdown_uses_payload_kind_attribute(self):
        loop, net = make_network()

        class Envelope:
            kind = "msg"

            def size_bytes(self):
                return 7

        net.register("n0", 0, lambda s, p: None)
        net.register("n1", 1, lambda s, p: None)
        net.send("n0", "n1", Envelope())
        loop.run_until_idle()
        stats = net.traffic("n1")
        assert stats.received_by_kind["msg"] == 1
        assert stats.bytes_received_by_kind["msg"] == 7

    def test_reset_traffic(self):
        loop, net = make_network()
        net.register("n0", 0, lambda s, p: None)
        net.register("n1", 1, lambda s, p: None)
        net.send("n0", "n1", "x")
        loop.run_until_idle()
        net.reset_traffic()
        assert net.traffic("n1").messages_received == 0

    def test_drop_filter_drops_messages(self):
        loop, net = make_network()
        sink = Sink()
        net.register("n0", 0, lambda s, p: None)
        net.register("n1", 1, sink)
        net.set_drop_filter(lambda src, dst, payload: payload == "drop-me")
        net.send("n0", "n1", "drop-me")
        net.send("n0", "n1", "keep-me")
        loop.run_until_idle()
        assert [p for _, p in sink.received] == ["keep-me"]


class TestClose:
    def test_close_forgets_nodes_observers_and_the_drop_filter(self):
        loop, net = make_network()
        observed = []
        net.register("n0", 0, lambda s, p: None)
        net.register("n1", 1, lambda s, p: None)
        net.add_delivery_observer(lambda *args: observed.append(args))
        net.set_drop_filter(lambda src, dst, payload: True)
        net.send("n0", "n1", "dropped")
        net.close()
        assert not net.is_registered("n0") and not net.is_registered("n1")
        with pytest.raises(KeyError):
            net.send("n0", "n1", "after")
        assert net.traffic("n0").messages_sent == 1  # counters stay readable

        sink = Sink()
        net.register("n0", 0, lambda s, p: None)
        net.register("n1", 1, sink)
        net.send("n0", "n1", "kept")
        loop.run_until_idle()
        assert sink.received == [("n0", "kept")] and observed == []

    def test_a_closed_network_no_longer_leads_to_its_nodes(self, refcount_only):
        # node -> transport -> network -> handler -> node
        class Node:
            def __init__(self, net):
                self.transport = SimTransport(net, "n0")
                net.register("n0", 0, self.on_message)

            def on_message(self, sender, payload):
                pass

        loop, net = make_network()
        node = Node(net)
        net.close()
        ref = weakref.ref(node)
        del node
        assert ref() is None


class TestPayloadSize:
    def test_size_bytes_method_preferred(self):
        class Sized:
            def size_bytes(self):
                return 123

        assert payload_size(Sized()) == 123

    def test_bytes_and_str_lengths(self):
        assert payload_size(b"abc") == 3
        assert payload_size("abcd") == 4

    def test_fallback_to_repr(self):
        assert payload_size(1234) == len(repr(1234))
