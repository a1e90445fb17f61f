"""Tests for the atomic multicast trace checker."""

import os
import random
import subprocess
import sys
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

import repro
from repro.checker.properties import (
    check_genuineness,
    check_trace,
    find_delivery_cycle,
)
from repro.core.flexcast import FlexCastProtocol
from repro.core.message import ClientRequest, Message
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
    """A real FlexCast delivery trace on the simulated WAN (O1), which
    satisfies every property: ``(sequences, messages)``."""
    rng = random.Random(seed)
    latencies = aws_latency_matrix()
    destinations = [
        frozenset(rng.sample(range(12), rng.choice([2, 2, 3]))) for _ in range(num_messages)
    ]
    protocol = FlexCastProtocol(build_o1(latencies))
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


def reference_ok(sequences, messages, expect_all_delivered):
    """What ``check_trace(...).ok`` means, stated as a sequential replay: one
    total order of everything delivered exists, each group delivered that
    order filtered to what it delivered, only messages addressed to it, and
    (when everything must arrive) each message at each destination once."""
    after = {m: set() for seq in sequences.values() for m in seq}
    for seq in sequences.values():
        for earlier, later in zip(seq, seq[1:]):
            after[later].add(earlier)
    try:
        order = list(TopologicalSorter(after).static_order())
    except CycleError:
        return False
    for group, seq in sequences.items():
        if seq != [m for m in order if m in set(seq)]:
            return False
        if any(m not in messages or group not in messages[m].dst for m in seq):
            return False
    return not expect_all_delivered or all(
        sequences.get(g, []).count(m) == 1 for m in messages for g in messages[m].dst
    )


GROUPS = (0, 1, 2, 3)


@st.composite
def mangled_traces(draw):
    """A few messages, a correct trace of them, then up to three faults:
    drops, duplicates, foreign ids, extra deliveries and reorderings."""
    messages = [
        msg(f"m{i}", draw(st.frozensets(st.sampled_from(GROUPS), min_size=1)))
        for i in range(draw(st.integers(1, 5)))
    ]
    order = draw(st.permutations(messages))
    sequences = {g: [m for m in order if g in m.dst] for g in GROUPS}
    for _ in range(draw(st.integers(0, 3))):
        group = draw(st.sampled_from(GROUPS))
        seq = sequences[group]
        at = draw(st.integers(0, len(seq)))
        fault = draw(st.sampled_from(["drop", "duplicate", "foreign", "extra", "reorder"]))
        if fault == "drop" and seq:
            seq.pop(min(at, len(seq) - 1))
        elif fault == "duplicate" and seq:
            seq.insert(at, draw(st.sampled_from(seq)))
        elif fault == "foreign":
            seq.insert(at, msg("ghost", GROUPS))
        elif fault == "extra":
            seq.insert(at, draw(st.sampled_from(messages)))
        elif fault == "reorder":
            sequences[group] = draw(st.permutations(seq))
    return messages, sequences


class TestCheckTraceIsTheSequentialReplay:
    """``check_trace`` passes exactly when a sequential replay of the run
    reproduces every group's deliveries: the fuzz harness and the explorer
    need no second oracle for it."""

    @pytest.mark.parametrize("expect_all_delivered", [True, False])
    @settings(max_examples=400, deadline=None)
    @given(trace=mangled_traces())
    def test_ok_iff_one_total_order_replays_every_group(self, expect_all_delivered, trace):
        messages, sequences = trace
        report = check_trace(sink_from(sequences), messages, expect_all_delivered)
        ids = {g: [m.msg_id for m in seq] for g, seq in sequences.items()}
        expected = reference_ok(ids, {m.msg_id: m for m in messages}, expect_all_delivered)
        event(f"ok={expected}")
        assert report.ok == expected, [str(v) for v in report.violations]


def pairwise_prefix_violations(messages, sequences):
    """The prefix-order check as one comparison per pair of common messages:
    the reference the checker's in-order shortcut must agree with."""
    dst = {m.msg_id: m.dst for m in messages}
    position = {
        g: {m.msg_id: i for i, m in enumerate(seq)} for g, seq in sequences.items()
    }
    found = []
    groups = list(sequences)
    for i, g in enumerate(groups):
        for h in groups[i + 1 :]:
            common = [
                m for m in set(position[g]) & set(position[h])
                if m in dst and {g, h} <= dst[m]
            ]
            ordered = sorted(common, key=lambda m: position[g][m])
            for a_idx, a in enumerate(ordered):
                for b in ordered[a_idx + 1 :]:
                    if position[h][a] > position[h][b]:
                        found.append(f"groups {g} and {h} disagree on {a} vs {b}")
    return found


def random_trace(rng, num_messages, groups="ABC"):
    """Every group delivers its messages in one shared total order."""
    messages = [
        msg(f"r{i}", rng.sample(groups, rng.randint(1, len(groups))))
        for i in range(num_messages)
    ]
    sequences = {g: [m for m in messages if g in m.dst] for g in groups}
    return sequences, messages


class TestPrefixOrderAgreesWithThePairwiseCheck:
    @pytest.mark.parametrize("seed", range(40))
    def test_same_report_on_random_traces_with_swapped_pairs(self, seed):
        rng = random.Random(seed)
        sequences, messages = random_trace(rng, rng.randint(2, 40))
        for _ in range(seed % 4):  # seeds 0, 4, 8, ... stay clean
            sequence = sequences[rng.choice(sorted(sequences))]
            if len(sequence) > 1:
                i, j = rng.sample(range(len(sequence)), 2)
                sequence[i], sequence[j] = sequence[j], sequence[i]
        report = check_trace(sink_from(sequences), messages)
        found = [
            v.description for v in report.violations if v.property_name == "prefix-order"
        ]
        assert found == pairwise_prefix_violations(messages, sequences)

    def test_a_clean_two_group_trace_of_20k_common_messages(self):
        # One comparison per pair would be 2 * 10^8 of them; the in-order
        # shortcut reads each position once.
        messages = [msg(f"c{i}", {"A", "B"}) for i in range(20_000)]
        report = check_trace(sink_from({"A": messages, "B": messages}), messages)
        assert report.ok and report.checked_messages == 20_000


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
        """A hand-built trace whose delivery relation holds two cycles through
        ``x`` (every pair meets at one group, so prefix order holds): the
        finding's text — what findings and shrunk artifacts carry — is
        compared across interpreters with different string hashing."""
        script = (
            "from repro.checker import check_trace\n"
            "from repro.core.message import Message\n"
            "from repro.protocols.base import RecordingSink\n"
            "sequences = [['z', 'x'], ['x', 'y'], ['y', 'z'],\n"
            "             ['x', 'u'], ['u', 'v'], ['v', 'x']]\n"
            "sink = RecordingSink()\n"
            "for group, ids in enumerate(sequences):\n"
            "    for mid in ids:\n"
            "        dst = frozenset(g for g, s in enumerate(sequences) if mid in s)\n"
            "        sink(group, Message(msg_id=mid, dst=dst))\n"
            "messages = {r.message.msg_id: r.message for r in sink.records}\n"
            "report = check_trace(sink, messages.values())\n"
            "print('\\n'.join(map(str, report.violations)))\n"
        )
        reports = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (str(Path(repro.__file__).parent.parent), env.get("PYTHONPATH")) if p
            )
            done = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
            reports.append(done.stdout)
        assert "[acyclic-order]" in reports[0]
        assert reports[0] == reports[1]
