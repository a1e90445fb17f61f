"""End-to-end correctness: all three protocols, random workloads, full checker.

These tests are the strongest safety net in the suite: they run each protocol
on the simulated WAN with randomized destination sets and adversarial
latencies, and validate every atomic multicast property from §2.2 on the
recorded delivery traces.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.checker import check_genuineness, check_trace
from repro.core.flexcast import FlexCastProtocol
from repro.core.message import ClientRequest, ClientResponse, Message, PAYLOAD_KINDS
from repro.overlay.builders import build_complete, build_o1, build_t1
from repro.overlay.cdag import CDagOverlay
from repro.protocols.base import RecordingSink
from repro.protocols.hierarchical import HierarchicalProtocol
from repro.protocols.skeen import SkeenProtocol
from repro.sim.events import EventLoop
from repro.sim.latencies import aws_latency_matrix
from repro.sim.network import Network
from repro.sim.transport import SimTransport

LATENCIES = aws_latency_matrix()


def deploy(protocol, jitter_ms=3.0, seed=0):
    """Deploy a protocol on the simulated WAN; returns (loop, network, groups, sink)."""
    loop = EventLoop()
    network = Network(loop, LATENCIES, jitter_ms=jitter_ms, seed=seed)
    sink = RecordingSink(clock=lambda: loop.now)
    groups = {}
    for gid in protocol.groups:
        transport = SimTransport(network, gid)
        group = protocol.create_group(gid, transport, sink)
        groups[gid] = group
        network.register(gid, site=gid, handler=group.on_envelope)
    return loop, network, groups, sink


def submit_random_workload(protocol, loop, network, seed, num_messages=60, spread_ms=400.0):
    """Multicast random global messages from a registered pseudo-client."""
    rng = random.Random(seed)
    network.register("client", site=rng.randrange(12), handler=lambda s, p: None)
    messages = []
    for i in range(num_messages):
        size = rng.choice([2, 2, 2, 3])
        dst = rng.sample(range(12), size)
        message = Message.create(dst, sender="client", msg_id=f"x{seed}-{i}")
        messages.append(message)
        delay = rng.uniform(0, spread_ms)
        for entry in protocol.entry_groups(message):
            loop.schedule(
                delay,
                lambda entry=entry, message=message: network.send(
                    "client", entry, ClientRequest(message=message)
                ),
            )
    return messages


PROTOCOL_BUILDERS = {
    "flexcast": lambda: FlexCastProtocol(build_o1(LATENCIES)),
    "hierarchical": lambda: HierarchicalProtocol(build_t1(LATENCIES)),
    "distributed": lambda: SkeenProtocol(build_complete(LATENCIES)),
}


class TestSafetyProperties:
    @pytest.mark.parametrize("name", sorted(PROTOCOL_BUILDERS))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_workload_satisfies_all_properties(self, name, seed):
        protocol = PROTOCOL_BUILDERS[name]()
        loop, network, groups, sink = deploy(protocol, seed=seed)
        messages = submit_random_workload(protocol, loop, network, seed)
        loop.run_until_idle()
        check_trace(sink, messages, expect_all_delivered=True).raise_if_failed()

    @pytest.mark.parametrize("name", ["distributed", "flexcast"])
    @pytest.mark.parametrize("seed", [4, 5])
    def test_genuine_protocol_is_genuine_under_random_workloads(self, name, seed):
        protocol = PROTOCOL_BUILDERS[name]()
        assert protocol.genuine
        loop, network, groups, sink = deploy(protocol, seed=seed)
        submit_random_workload(protocol, loop, network, seed)
        loop.run_until_idle()
        payload_received = {
            gid: sum(
                count
                for kind, count in network.traffic(gid).received_by_kind.items()
                if kind in PAYLOAD_KINDS
            )
            for gid in protocol.groups
        }
        delivered = {gid: groups[gid].delivered_count for gid in protocol.groups}
        check_genuineness(payload_received, delivered, protocol.groups).raise_if_failed()

    @pytest.mark.parametrize("seed", [6])
    def test_hierarchical_is_not_genuine_under_the_same_workload(self, seed):
        protocol = PROTOCOL_BUILDERS["hierarchical"]()
        loop, network, groups, sink = deploy(protocol, seed=seed)
        submit_random_workload(protocol, loop, network, seed)
        loop.run_until_idle()
        payload_received = {
            gid: sum(
                count
                for kind, count in network.traffic(gid).received_by_kind.items()
                if kind in PAYLOAD_KINDS
            )
            for gid in protocol.groups
        }
        delivered = {gid: groups[gid].delivered_count for gid in protocol.groups}
        assert not check_genuineness(payload_received, delivered, protocol.groups).ok


class TestEveryCDagOrder:
    """FlexCast asks only for *a* complete DAG, not a good one: on each of the
    24 orders of four groups (O1 and O2 are two such orders of twelve), a
    random workload satisfies every property, is delivered in full, and
    stays genuine."""

    GROUPS = (0, 3, 5, 9)

    @pytest.mark.parametrize(
        "order",
        list(itertools.permutations(GROUPS)),
        ids=lambda order: "-".join(map(str, order)),
    )
    def test_random_workload_on_order(self, order):
        seed = sum(rank * gid for rank, gid in enumerate(order))
        rng = random.Random(seed)
        destinations = [
            frozenset(rng.sample(self.GROUPS, rng.choice([2, 2, 3, 4])))
            for _ in range(40)
        ]
        protocol = FlexCastProtocol(CDagOverlay(list(order)))
        loop, network, groups, sink = deploy(protocol, seed=seed)
        network.register("client", site=rng.randrange(12), handler=lambda s, p: None)
        messages = []
        for i, dst in enumerate(destinations):
            message = Message.create(dst, sender="client", msg_id=f"o{seed}-{i}")
            messages.append(message)
            (entry,) = protocol.entry_groups(message)
            assert entry == order[min(order.index(g) for g in dst)]
            loop.schedule(
                rng.uniform(0, 300.0),
                lambda entry=entry, message=message: network.send(
                    "client", entry, ClientRequest(message=message)
                ),
            )
        loop.run_until_idle()
        check_trace(sink, messages, expect_all_delivered=True).raise_if_failed()
        payload_received = {
            gid: sum(
                count
                for kind, count in network.traffic(gid).received_by_kind.items()
                if kind in PAYLOAD_KINDS
            )
            for gid in protocol.groups
        }
        delivered = {gid: groups[gid].delivered_count for gid in protocol.groups}
        check_genuineness(payload_received, delivered, protocol.groups).raise_if_failed()


class TestHypothesisDrivenOrdering:
    @given(
        destinations=st.lists(
            st.sets(st.integers(0, 5), min_size=2, max_size=3), min_size=5, max_size=20
        ),
        data=st.data(),
    )
    @settings(max_examples=20, deadline=None)
    def test_flexcast_prefix_and_acyclic_order_hold_for_arbitrary_destination_sets(
        self, destinations, data
    ):
        protocol = FlexCastProtocol(build_o1(LATENCIES))
        seed = data.draw(st.integers(0, 1_000))
        loop, network, groups, sink = deploy(protocol, seed=seed)
        network.register("client", site=0, handler=lambda s, p: None)
        messages = []
        rng = random.Random(seed)
        for i, dst in enumerate(destinations):
            message = Message.create(dst, sender="client", msg_id=f"h{seed}-{i}")
            messages.append(message)
            entry = protocol.entry_groups(message)[0]
            loop.schedule(
                rng.uniform(0, 200.0),
                lambda entry=entry, message=message: network.send(
                    "client", entry, ClientRequest(message=message)
                ),
            )
        loop.run_until_idle()
        check_trace(sink, messages, expect_all_delivered=True).raise_if_failed()

    #: The hypothesis-found witness (PR 9): three messages whose pairs each
    #: share exactly ONE group get their pairwise orders decided at three
    #: independent groups, which closed a 3-cycle the pivot guard never saw
    #: (h-8 < h-3 at group 4, h-3 < h-5 at group 5, h-5 < h-8 at group 3).
    THREE_CYCLE_DESTINATIONS = [
        {0, 1}, {0, 1}, {0, 1}, {2, 4, 5}, {0, 5},
        {3, 5}, {0, 1}, {0, 1}, {1, 3, 4},
    ]

    def test_three_cycle_witness_is_clean(self):
        """A notified group acks every notifier, which closes the hole."""
        seed = 0
        protocol = FlexCastProtocol(build_o1(LATENCIES))
        loop, network, groups, sink = deploy(protocol, seed=seed)
        network.register("client", site=0, handler=lambda s, p: None)
        messages = []
        rng = random.Random(seed)
        for i, dst in enumerate(self.THREE_CYCLE_DESTINATIONS):
            message = Message.create(dst, sender="client", msg_id=f"h{seed}-{i}")
            messages.append(message)
            entry = protocol.entry_groups(message)[0]
            loop.schedule(
                rng.uniform(0, 200.0),
                lambda entry=entry, message=message: network.send(
                    "client", entry, ClientRequest(message=message)
                ),
            )
        loop.run_until_idle()
        check_trace(sink, messages, expect_all_delivered=True).raise_if_failed()
