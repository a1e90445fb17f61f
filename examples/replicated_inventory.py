#!/usr/bin/env python3
"""A strongly consistent multi-warehouse inventory service on atomic multicast.

This is the application the paper's introduction motivates: a wholesale supply
system whose warehouses live in different AWS regions.  Stock transfers touch
two warehouses and must be applied in the same relative order everywhere,
otherwise warehouses disagree about stock levels.

Part 1 builds exactly that with FlexCast providing the ordering across the 12
AWS regions: every transfer is multicast to the two involved warehouses, and
because atomic multicast guarantees prefix/acyclic order, both endpoints apply
conflicting transfers in the same order.  The example verifies the final stock
against a sequential replay.

Part 2 shows the paper's §4.4 fault-tolerance story on a single group: the
warehouse group is replicated with multi-Paxos (three replicas), keeps
processing stock adjustments after its leader replica crashes, and all
surviving replicas hold identical state.

Both parts are deterministic: all randomness flows through explicitly seeded
``random.Random`` instances, so every run prints the same numbers, and the
test suite executes the same entry points (``run_geo_distributed`` /
``run_replicated_failover``) and replays their traces through the checker
(``tests/examples/test_examples_run.py``).

Run with:  python examples/replicated_inventory.py
"""

from random import Random

from repro.core.flexcast import FlexCastProtocol
from repro.core.message import ClientRequest, Message
from repro.overlay.builders import build_o1
from repro.overlay.cdag import CDagOverlay
from repro.protocols.base import RecordingSink
from repro.sim.events import EventLoop
from repro.sim.latencies import LatencyMatrix, aws_latency_matrix
from repro.sim.network import Network
from repro.sim.transport import SimTransport
from repro.smr.replica import ReplicatedGroup

ITEMS = ["widget", "gadget", "sprocket"]
INITIAL_STOCK = 1_000


class Warehouse:
    """Deterministic state machine applied to delivered transfer messages."""

    def __init__(self, warehouse_id: int) -> None:
        self.warehouse_id = warehouse_id
        self.stock = {item: INITIAL_STOCK for item in ITEMS}
        self.applied = []

    def apply(self, transfer: dict) -> None:
        item, quantity = transfer["item"], transfer["quantity"]
        if transfer["from"] == self.warehouse_id:
            self.stock[item] -= quantity
        if transfer["to"] == self.warehouse_id:
            self.stock[item] += quantity
        self.applied.append(transfer["id"])


def run_geo_distributed(
    workload_rng: Random = None,
    jitter_seed: int = 11,
    num_transfers: int = 300,
):
    """Part 1 as a reusable function: returns everything the checks need.

    ``workload_rng`` is the single source of workload randomness (defaults to
    the canonical ``Random(3)``); the network jitter stream is seeded
    separately so both are reproducible in isolation.
    """
    rng = workload_rng if workload_rng is not None else Random(3)
    latencies = aws_latency_matrix()
    overlay = build_o1(latencies)
    protocol = FlexCastProtocol(overlay)

    loop = EventLoop()
    network = Network(loop, latencies, jitter_ms=2.0, seed=jitter_seed)
    warehouses = {gid: Warehouse(gid) for gid in overlay.groups}
    trace = RecordingSink(clock=lambda: loop.now)

    def sink(group_id, message):
        warehouses[group_id].apply(message.payload)
        trace(group_id, message)

    for gid in overlay.groups:
        group = protocol.create_group(gid, SimTransport(network, gid), sink)
        network.register(gid, site=gid, handler=group.on_envelope)
    network.register("coordinator", site=0, handler=lambda s, p: None)

    transfers = []
    messages = []
    for i in range(num_transfers):
        src, dst = rng.sample(overlay.groups, 2)
        transfer = {
            "id": f"t{i}",
            "item": rng.choice(ITEMS),
            "quantity": rng.randint(1, 20),
            "from": src,
            "to": dst,
        }
        transfers.append(transfer)
        message = Message.create(
            [src, dst], sender="coordinator", payload=transfer, payload_bytes=96,
            msg_id=transfer["id"],
        )
        messages.append(message)
        entry = protocol.entry_groups(message)[0]
        loop.schedule(
            rng.uniform(0, 1_500.0),
            lambda entry=entry, message=message: network.send(
                "coordinator", entry, ClientRequest(message=message)
            ),
        )
    loop.run_until_idle()

    # Sequential replay gives the expected final stock.
    expected = {gid: Warehouse(gid) for gid in overlay.groups}
    for transfer in transfers:
        expected[transfer["from"]].apply(transfer)
        expected[transfer["to"]].apply(transfer)

    mismatches = sum(
        1 for gid in overlay.groups if warehouses[gid].stock != expected[gid].stock
    )
    total_units = sum(sum(w.stock.values()) for w in warehouses.values())
    expected_units = len(warehouses) * len(ITEMS) * INITIAL_STOCK
    return {
        "overlay": overlay,
        "transfers": transfers,
        "messages": messages,
        "trace": trace,
        "warehouses": warehouses,
        "mismatches": mismatches,
        "total_units": total_units,
        "expected_units": expected_units,
    }


def geo_distributed_inventory() -> None:
    """Part 1: cross-warehouse transfers ordered by FlexCast on 12 regions."""
    result = run_geo_distributed()
    num_warehouses = len(result["warehouses"])
    print("Part 1 — geo-distributed inventory on FlexCast (12 AWS regions)")
    print(f"  transfers multicast          : {len(result['transfers'])}")
    print(
        f"  total stock after the run    : {result['total_units']} units "
        f"(expected {result['expected_units']})"
    )
    print(
        f"  warehouses matching replay   : "
        f"{num_warehouses - result['mismatches']}/{num_warehouses}"
    )
    if result["mismatches"] or result["total_units"] != result["expected_units"]:
        raise SystemExit("inconsistent stock — atomic multicast ordering violated!")
    print("  every conflicting transfer was applied in the same order at both endpoints\n")


def run_replicated_failover(
    workload_rng: Random = None,
    jitter_seed: int = 5,
    num_adjustments: int = 60,
    crash_at_ms: float = 205.0,
):
    """Part 2 as a reusable function: leader crash on a replicated group."""
    rng = workload_rng if workload_rng is not None else Random(9)
    loop = EventLoop()
    latencies = LatencyMatrix(matrix=[[0.5, 5], [5, 0.5]], names=["wh", "clients"])
    network = Network(loop, latencies, jitter_ms=0.5, seed=jitter_seed)
    protocol = FlexCastProtocol(CDagOverlay([0]))

    warehouse = Warehouse(0)
    delivered = []

    def sink(group_id, message):
        warehouse.apply(message.payload)
        delivered.append(message.msg_id)

    group = ReplicatedGroup(
        group_id=0, protocol=protocol, network=network, site=0, sink=sink,
        replication_factor=3,
    )
    network.register("client", site=1, handler=lambda s, p: None)

    adjustments = []
    for i in range(num_adjustments):
        adjustment = {
            "id": f"a{i}",
            "item": rng.choice(ITEMS),
            "quantity": rng.randint(1, 5),
            "from": -1,      # external supplier
            "to": 0,
        }
        adjustments.append(adjustment)
        message = Message.create(
            [0], sender="client", payload=adjustment, payload_bytes=64, msg_id=f"a{i}"
        )
        loop.schedule(
            i * 10.0,
            lambda message=message: network.send(
                "client", group.leader.replica_id, ClientRequest(message=message)
            ),
        )
    # Crash the initial leader a third of the way through the run.
    loop.schedule(crash_at_ms, lambda: group.crash_replica(0, network))
    loop.run_until_idle()

    survivors = [r for i, r in enumerate(group.replicas) if i != 0]
    agree = survivors[0].local_deliveries == survivors[1].local_deliveries
    return {
        "adjustments": adjustments,
        "delivered": delivered,
        "group": group,
        "survivors": survivors,
        "agree": agree,
        "warehouse": warehouse,
    }


def replicated_warehouse_failover() -> None:
    """Part 2: one warehouse group survives the crash of its leader replica."""
    result = run_replicated_failover()
    group, delivered = result["group"], result["delivered"]
    adjustments = result["adjustments"]
    print("Part 2 — replicated warehouse group (multi-Paxos, 3 replicas)")
    print(f"  adjustments submitted        : {len(adjustments)}")
    print(f"  delivered to the application : {len(delivered)}")
    print(f"  leader after the crash       : {group.leader.replica_id}")
    print(f"  surviving replicas agree     : {result['agree']}")
    if not result["agree"] or len(delivered) < len(adjustments) * 0.9:
        raise SystemExit("replicated group lost consistency or too many adjustments!")
    print("  the group kept ordering and applying adjustments across the fail-over")


def main() -> None:
    geo_distributed_inventory()
    replicated_warehouse_failover()


if __name__ == "__main__":
    main()
