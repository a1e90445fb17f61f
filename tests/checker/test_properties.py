"""Tests for the atomic multicast trace checker."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.checker.properties import (
    check_genuineness,
    check_trace,
    find_delivery_cycle,
)
from repro.core.flexcast import FlexCastProtocol
from repro.core.message import ClientRequest, Message
from repro.core.timestamps import Exposure
from repro.overlay.builders import build_o1
from repro.protocols.base import RecordingSink
from repro.sim.events import EventLoop
from repro.sim.latencies import aws_latency_matrix
from repro.sim.network import Network
from repro.sim.transport import SimTransport


def msg(mid, dst):
    return Message(msg_id=mid, dst=frozenset(dst))


def sink_from(sequences):
    """Build a RecordingSink from {group: [messages in delivery order]}."""
    sink = RecordingSink()
    for group, messages in sequences.items():
        for m in messages:
            sink(group, m)
    return sink


class TestCleanTraces:
    def test_consistent_trace_passes_all_checks(self):
        m1, m2 = msg("m1", {"A", "B"}), msg("m2", {"A", "B"})
        sink = sink_from({"A": [m1, m2], "B": [m1, m2]})
        report = check_trace(sink, [m1, m2])
        assert report.ok
        report.raise_if_failed()  # must not raise
        assert report.checked_messages == 2 and report.checked_groups == 2

    def test_disjoint_destinations_unconstrained(self):
        m1, m2 = msg("m1", {"A"}), msg("m2", {"B"})
        sink = sink_from({"A": [m1], "B": [m2]})
        assert check_trace(sink, [m1, m2]).ok


class TestViolations:
    def test_prefix_order_violation_detected(self):
        m1, m2 = msg("m1", {"A", "B"}), msg("m2", {"A", "B"})
        sink = sink_from({"A": [m1, m2], "B": [m2, m1]})
        report = check_trace(sink, [m1, m2])
        assert not report.ok
        assert any(v.property_name == "prefix-order" for v in report.violations)
        with pytest.raises(AssertionError):
            report.raise_if_failed()

    def test_acyclic_order_violation_detected(self):
        # A: m1 < m2, B: m2 < m3, C: m3 < m1 — a cycle across three groups.
        m1 = msg("m1", {"A", "C"})
        m2 = msg("m2", {"A", "B"})
        m3 = msg("m3", {"B", "C"})
        sink = sink_from({"A": [m1, m2], "B": [m2, m3], "C": [m3, m1]})
        report = check_trace(sink, [m1, m2, m3])
        assert any(v.property_name == "acyclic-order" for v in report.violations)

    def test_integrity_violations_detected(self):
        m1 = msg("m1", {"A"})
        ghost = msg("ghost", {"A"})
        sink = sink_from({"A": [m1, m1, ghost], "B": [m1]})
        report = check_trace(sink, [m1], expect_all_delivered=False)
        names = {v.property_name for v in report.violations}
        assert "integrity" in names
        descriptions = " ".join(v.description for v in report.violations)
        assert "twice" in descriptions
        assert "never multicast" in descriptions
        assert "addressed to" in descriptions

    def test_missing_delivery_detected_when_expected(self):
        m1 = msg("m1", {"A", "B"})
        sink = sink_from({"A": [m1]})
        report = check_trace(sink, [m1], expect_all_delivered=True)
        assert any(v.property_name == "validity/agreement" for v in report.violations)

    def test_missing_delivery_ignored_when_not_expected(self):
        m1 = msg("m1", {"A", "B"})
        sink = sink_from({"A": [m1]})
        assert check_trace(sink, [m1], expect_all_delivered=False).ok


def flexcast_trace(seed, num_messages=60):
    """A real FlexCast delivery trace on the simulated WAN (O1, shapes
    declared, so it satisfies every property): ``(sequences, messages)``."""
    rng = random.Random(seed)
    latencies = aws_latency_matrix()
    destinations = [
        frozenset(rng.sample(range(12), rng.choice([2, 2, 3]))) for _ in range(num_messages)
    ]
    protocol = FlexCastProtocol(build_o1(latencies), exposure=Exposure.declared(destinations))
    loop = EventLoop()
    network = Network(loop, latencies, jitter_ms=3.0, seed=seed)
    sink = RecordingSink()
    for gid in protocol.groups:
        group = protocol.create_group(gid, SimTransport(network, gid), sink)
        network.register(gid, site=gid, handler=group.on_envelope)
    network.register("client", site=rng.randrange(12), handler=lambda s, p: None)
    messages = []
    for i, dst in enumerate(destinations):
        message = Message.create(dst, sender="client", msg_id=f"t{seed}-{i}")
        messages.append(message)
        (entry,) = protocol.entry_groups(message)
        loop.schedule(
            rng.uniform(0, 400.0),
            lambda entry=entry, message=message: network.send(
                "client", entry, ClientRequest(message=message)
            ),
        )
    loop.run_until_idle()
    return {g: list(sink.per_group[g]) for g in sink.per_group}, messages


def swap_adjacent_pair(sequences, messages):
    """Swap, at one group, two consecutive deliveries that another group
    also delivers."""
    for group, sequence in sorted(sequences.items()):
        for i in range(len(sequence) - 1):
            a, b = sequence[i], sequence[i + 1]
            if (a.dst & b.dst) - {group}:
                sequence[i], sequence[i + 1] = b, a
                return
    raise AssertionError("no pair of consecutive deliveries shares two groups")


def drop_last_delivery(sequences, messages):
    group = max(sequences, key=lambda g: len(sequences[g]))
    sequences[group].pop()


def deliver_twice(sequences, messages):
    sequence = sequences[min(sequences)]
    sequence.insert(1, sequence[0])


def deliver_outside_destinations(sequences, messages):
    sequences["outsider"] = [messages[0]]


def deliver_never_multicast(sequences, messages):
    sequences[min(sequences)].append(msg("ghost", set(range(12))))


#: Each fault, injected into a correct trace, and exactly the properties the
#: checker must then report.  A swap or a repeated delivery also closes a
#: cycle in the union delivery relation (a -> b here, b -> a there; m -> m).
INJECTED_FAULTS = {
    "swap": (swap_adjacent_pair, {"prefix-order", "acyclic-order"}),
    "drop": (drop_last_delivery, {"validity/agreement"}),
    "duplicate": (deliver_twice, {"integrity", "acyclic-order"}),
    "misaddress": (deliver_outside_destinations, {"integrity"}),
    "phantom": (deliver_never_multicast, {"integrity"}),
}


class TestFaultsInjectedIntoRealTraces:
    @pytest.mark.parametrize("fault", sorted(INJECTED_FAULTS))
    @pytest.mark.parametrize("seed", range(1, 5))
    def test_checker_names_exactly_the_broken_properties(self, seed, fault):
        sequences, messages = flexcast_trace(seed)
        assert check_trace(sink_from(sequences), messages).ok
        inject, expected = INJECTED_FAULTS[fault]
        inject(sequences, messages)
        report = check_trace(sink_from(sequences), messages)
        assert {v.property_name for v in report.violations} == expected


class TestGenuineness:
    def test_equal_counts_pass(self):
        report = check_genuineness({1: 10, 2: 5}, {1: 10, 2: 5}, groups=[1, 2])
        assert report.ok

    def test_receiving_more_than_delivered_fails(self):
        report = check_genuineness({1: 10}, {1: 7}, groups=[1])
        assert not report.ok
        assert report.violations[0].property_name == "minimality"


class TestCycleWitnessIsDeterministic:
    def test_names_the_lexicographically_first_cycle(self):
        # Two cycles reachable from "a": through "b" and through "c".  A set
        # iterates in string-hash order, so an unsorted walk would name
        # either, depending on PYTHONHASHSEED.
        successors = {
            "a": {"c", "b"},
            "b": {"a"},
            "c": {"d"},
            "d": {"a"},
        }
        assert find_delivery_cycle(successors, sorted(successors)) == ["a", "b", "a"]
        successors["b"] = {"e"}  # only the longer cycle is left
        assert find_delivery_cycle(successors, sorted(successors)) == [
            "a",
            "c",
            "d",
            "a",
        ]

    def test_report_text_is_the_same_under_every_hash_seed(self):
        """The committed inventory schedule is cyclic with nothing exposed;
        the anomaly's text — what findings and shrunk artifacts carry — is
        compared across interpreters with different string hashing."""
        schedule = (
            Path(__file__).parent.parent
            / "regression"
            / "schedules"
            / "inventory_seed3_full.json"
        )
        script = (
            "import sys\n"
            "from repro.fuzz import FuzzScenario, run_scenario\n"
            "result = run_scenario(FuzzScenario.load(sys.argv[1]), exposure='none')\n"
            "print('\\n'.join(result.violations + result.ordering_anomalies))\n"
        )
        reports = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (str(Path(repro.__file__).parent.parent), env.get("PYTHONPATH")) if p
            )
            done = subprocess.run(
                [sys.executable, "-c", script, str(schedule)],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
            reports.append(done.stdout)
        assert "[acyclic-order]" in reports[0]
        assert reports[0] == reports[1]
