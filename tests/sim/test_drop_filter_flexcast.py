"""Fault injection against FlexCast delivery via ``Network.set_drop_filter``.

FlexCast (§4.2) assumes FIFO *reliable* channels.  These scenarios pin both
sides of that assumption:

* **duplication** is tolerated: duplicated protocol envelopes never cause a
  double delivery (idempotent enqueue/ack bookkeeping);
* **loss** is *not* tolerated: a dropped envelope stalls the affected message
  forever (no retransmission layer exists), and it leaves the global
  sent/received counters permanently unequal.
"""

from repro.core.flexcast import FlexCastGroup
from repro.core.message import ClientRequest, FlexCastAck, FlexCastMsg, Message
from repro.overlay.cdag import CDagOverlay
from repro.protocols.base import RecordingSink
from repro.sim.events import EventLoop
from repro.sim.latencies import LatencyMatrix
from repro.sim.network import Network
from repro.sim.transport import SimTransport

A, B, C = 0, 1, 2


def deploy():
    loop = EventLoop()
    matrix = LatencyMatrix(
        matrix=[[0.1, 5, 5], [5, 0.1, 5], [5, 5, 0.1]], names=["a", "b", "c"]
    )
    network = Network(loop, matrix)
    overlay = CDagOverlay([A, B, C])
    sink = RecordingSink()
    groups = {}
    for gid in (A, B, C):
        group = FlexCastGroup(gid, overlay, SimTransport(network, gid), sink)
        groups[gid] = group
        network.register(gid, site=gid, handler=group.on_envelope)
    network.register("client", site=0, handler=lambda s, p: None)
    return loop, network, groups, sink


def submit(network, groups, message):
    lca = groups[A].overlay.lca(message.dst)
    network.send("client", lca, ClientRequest(message=message))


class DuplicatingFilter:
    """Duplicates each matching envelope once (never drops anything)."""

    def __init__(self, network, predicate):
        self._network = network
        self._predicate = predicate
        self._seen = set()
        self.duplicated = 0

    def __call__(self, src, dst, payload):
        if self._predicate(payload) and id(payload) not in self._seen:
            self._seen.add(id(payload))
            self.duplicated += 1
            # Re-send the same envelope: the nested send passes the filter
            # (already seen) and schedules a second delivery.
            self._network.send(src, dst, payload)
        return False


class TestDuplication:
    def test_duplicated_msgs_and_acks_deliver_exactly_once(self):
        loop, network, groups, sink = deploy()
        dup = DuplicatingFilter(
            network, lambda p: isinstance(p, (FlexCastMsg, FlexCastAck))
        )
        network.set_drop_filter(dup)
        for i in range(8):
            submit(
                network,
                groups,
                Message(msg_id=f"m{i}", dst=frozenset({A, B, C}), sender="client"),
            )
            loop.run(until=loop.now + 2.0)
        loop.run_until_idle()
        assert dup.duplicated > 0
        for gid in (A, B, C):
            sequence = sink.sequence(gid)
            assert sequence == [f"m{i}" for i in range(8)]
            assert len(set(sequence)) == len(sequence)


class TestLoss:
    def test_dropped_msg_stalls_delivery_forever(self):
        loop, network, groups, sink = deploy()
        dropped = []

        def drop_first_msg_to_c(src, dst, payload):
            if isinstance(payload, FlexCastMsg) and dst == C and not dropped:
                dropped.append(payload.message.msg_id)
                return True
            return False

        network.set_drop_filter(drop_first_msg_to_c)
        submit(network, groups, Message(msg_id="m0", dst=frozenset({A, C}), sender="client"))
        loop.run_until_idle()
        assert dropped == ["m0"]
        assert sink.sequence(A) == ["m0"]
        # No retransmission layer: C never delivers, even after healing.
        assert sink.sequence(C) == []
        network.set_drop_filter(None)
        loop.run_until_idle()
        assert sink.sequence(C) == []

    def test_loss_leaves_sent_received_counters_unequal(self):
        """Global sent == received envelope counts hold only on a reliable
        network — loss keeps them apart."""
        loop, network, groups, sink = deploy()
        # m0 is addressed to all three groups: C must wait for B's ack
        # (Strategy (b)) before delivering — and that ack is dropped.
        network.set_drop_filter(
            lambda src, dst, payload: isinstance(payload, FlexCastAck) and dst == C
        )
        submit(
            network,
            groups,
            Message(msg_id="m0", dst=frozenset({A, B, C}), sender="client"),
        )
        loop.run_until_idle()

        sent = sum(
            g.stats["msgs_sent"] + g.stats["acks_sent"] + g.stats["notifs_sent"]
            for g in groups.values()
        )
        received = sum(
            g.stats["msgs_received"]
            + g.stats["acks_received"]
            + g.stats["notifs_received"]
            for g in groups.values()
        )
        assert sent > received  # the dropped ack is counted out but never in
        # ...and the ack-starved destination is stuck with an open queue.
        assert sink.sequence(C) == []
        assert groups[C].queue_sizes()[A] == 1
        assert groups[C].history_size() == 1
