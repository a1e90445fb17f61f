"""Tests for the closed-loop simulator clients."""

import random

import pytest

from repro.core.flexcast import FlexCastProtocol
from repro.core.message import ClientResponse
from repro.metrics import LatencyCollector
from repro.overlay.cdag import CDagOverlay
from repro.sim.events import EventLoop
from repro.sim.latencies import LatencyMatrix
from repro.sim.network import Network
from repro.sim.transport import SimTransport
from repro.workload.clients import ClosedLoopClient
from repro.workload.gtpcc import GTPCCConfig, GTPCCWorkload


def deploy(num_groups=3, stop_after_ms=500.0, global_only=True):
    loop = EventLoop()
    matrix = LatencyMatrix(
        matrix=[[1 if a == b else 10 for b in range(num_groups)] for a in range(num_groups)],
        names=[f"s{i}" for i in range(num_groups)],
        local_latency=1.0,
    )
    network = Network(loop, matrix)
    overlay = CDagOverlay(list(range(num_groups)))
    protocol = FlexCastProtocol(overlay)

    def sink(group_id, message):
        if network.is_registered(message.sender):
            network.send(group_id, message.sender, ClientResponse(msg_id=message.msg_id, group=group_id))

    for gid in overlay.groups:
        group = protocol.create_group(gid, SimTransport(network, gid), sink)
        network.register(gid, site=gid, handler=group.on_envelope)

    workload = GTPCCWorkload(matrix, GTPCCConfig(locality=0.9, global_only=global_only))
    completed = []
    client = ClosedLoopClient(
        client_id="client-0",
        home=0,
        protocol=protocol,
        workload=workload,
        network=network,
        rng=random.Random(1),
        group_node=lambda gid: gid,
        on_complete=completed.append,
        stop_after_ms=stop_after_ms,
    )
    return loop, network, client, completed


class TestClosedLoop:
    def test_client_issues_transactions_until_the_deadline(self):
        loop, network, client, completed = deploy(stop_after_ms=500.0)
        client.start()
        loop.run_until_idle()
        assert client.issued > 5
        assert client.completed == client.issued
        assert len(completed) == client.completed
        assert client.outstanding == 0

    def test_one_transaction_in_flight_at_a_time(self):
        loop, network, client, completed = deploy(stop_after_ms=300.0)
        client.start()
        while loop.step():
            assert client.outstanding <= 1

    def test_completed_records_carry_sorted_latencies(self):
        loop, network, client, completed = deploy(stop_after_ms=300.0)
        client.start()
        loop.run_until_idle()
        previous = 0.0
        for record in completed:
            assert list(record.latencies_by_arrival) == sorted(record.latencies_by_arrival)
            assert len(record.latencies_by_arrival) >= 2
            # Closed loop: each transaction is submitted when the last one
            # completed, and completes when its last response arrives.
            submitted_at = record.completed_at - record.latencies_by_arrival[-1]
            assert submitted_at >= previous - 1e-9
            previous = record.completed_at

    def test_standard_mix_local_transactions_leave_the_rank_queries(self, monkeypatch):
        widths = []
        generate = GTPCCWorkload.next_transaction

        def next_transaction(self, home, rng):
            txn = generate(self, home, rng)
            widths.append(len(txn.destinations))
            return txn

        monkeypatch.setattr(GTPCCWorkload, "next_transaction", next_transaction)
        loop, network, client, completed = deploy(
            stop_after_ms=2_000.0, global_only=False
        )
        client.start()
        loop.run_until_idle()
        # One latency per destination, one transaction in flight at a time:
        # a record is global exactly when its transaction named more than
        # one warehouse.
        assert [len(r.latencies_by_arrival) for r in completed] == widths
        local = [r for r in completed if len(r.latencies_by_arrival) == 1]
        global_ = [r for r in completed if len(r.latencies_by_arrival) > 1]
        assert local and global_
        collector = LatencyCollector()
        for record in completed:
            collector.record(record)
        assert collector.latencies_for_destination(1) == [
            r.latencies_by_arrival[0] for r in global_
        ]

    def test_stop_prevents_further_transactions(self):
        loop, network, client, completed = deploy(stop_after_ms=10_000.0)
        client.start()
        loop.run(until=100.0)
        issued_at_stop = client.issued
        client.stop()
        loop.run_until_idle()
        assert client.issued <= issued_at_stop + 1


class TestBoundedResubmitter:
    """Unit tests for the crash-profile resubmit-on-timeout helper."""

    def _make(self, settled, timeout_ms=10.0, max_retries=3):
        from repro.workload.clients import BoundedResubmitter

        loop = EventLoop()
        resent = []
        resubmitter = BoundedResubmitter(
            resend=resent.append,
            is_settled=lambda key: key in settled,
            schedule=lambda delay_ms, cb: loop.schedule(delay_ms, cb),
            timeout_ms=timeout_ms,
            max_retries=max_retries,
        )
        return loop, resent, resubmitter

    def test_settled_key_is_never_resent(self):
        settled = {"m0"}
        loop, resent, resubmitter = self._make(settled)
        resubmitter.track("m0")
        loop.run_until_idle()
        assert resent == []
        assert resubmitter.retries == 0
        assert resubmitter.exhausted == []

    def test_unsettled_key_resent_until_settled(self):
        settled = set()
        loop, resent, resubmitter = self._make(settled)
        resubmitter.track("m0")
        # Settle after the second resend (mid-run delivery).
        original_resend = resubmitter._resend

        def resend_and_maybe_settle(key):
            original_resend(key)
            if len(resent) == 2:
                settled.add(key)

        resubmitter._resend = resend_and_maybe_settle
        loop.run_until_idle()
        assert resent == ["m0", "m0"]
        assert resubmitter.exhausted == []

    def test_retry_budget_is_bounded(self):
        loop, resent, resubmitter = self._make(set(), max_retries=3)
        resubmitter.track("m0")
        loop.run_until_idle()
        assert resent == ["m0"] * 3
        assert resubmitter.retries == 3
        assert resubmitter.exhausted == ["m0"]

    def test_zero_retries_only_records_exhaustion(self):
        loop, resent, resubmitter = self._make(set(), max_retries=0)
        resubmitter.track("m0")
        loop.run_until_idle()
        assert resent == []
        assert resubmitter.exhausted == ["m0"]

    def test_invalid_parameters_rejected(self):
        from repro.workload.clients import BoundedResubmitter

        noop = lambda *a: None  # noqa: E731
        with pytest.raises(ValueError):
            BoundedResubmitter(noop, noop, noop, timeout_ms=0.0)
        with pytest.raises(ValueError):
            BoundedResubmitter(noop, noop, noop, timeout_ms=1.0, max_retries=-1)
