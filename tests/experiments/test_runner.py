"""Tests for the experiment runner (small, fast configurations)."""

import pytest

from repro.core.flexcast import FlexCastProtocol
from repro.core.message import Message
from repro.experiments.config import (
    distributed_config,
    flexcast_config,
    hierarchical_config,
)
from repro.experiments.runner import build_protocol, run_experiment
from repro.protocols.hierarchical import HierarchicalProtocol
from repro.protocols.skeen import SkeenProtocol
from repro.sim.latencies import aws_latency_matrix

FAST = dict(num_clients=6, duration_ms=800.0, seed=3)


class TestBuildProtocol:
    def test_builds_the_right_protocol_types(self, latencies):
        assert isinstance(build_protocol(flexcast_config(), latencies), FlexCastProtocol)
        assert isinstance(build_protocol(hierarchical_config(), latencies), HierarchicalProtocol)
        assert isinstance(build_protocol(distributed_config(), latencies), SkeenProtocol)


class TestRunExperiment:
    def test_flexcast_run_produces_latency_data(self):
        result = run_experiment(flexcast_config(**FAST))
        assert result.completed > 0
        assert result.completed == result.issued
        assert result.latency.latencies_for_destination(1)
        assert result.throughput_ops_per_sec > 0
        assert result.label == "FlexCast O1"

    def test_all_issued_transactions_eventually_complete(self):
        for config in (flexcast_config(**FAST), hierarchical_config(**FAST), distributed_config(**FAST)):
            result = run_experiment(config)
            assert result.completed == result.issued, config.display_label

    def test_genuine_protocols_have_zero_overhead(self):
        for config in (flexcast_config(**FAST), distributed_config(**FAST)):
            result = run_experiment(config)
            assert result.overhead.mean_percent == pytest.approx(0.0, abs=1e-9)

    def test_hierarchical_protocol_has_positive_overhead(self):
        result = run_experiment(hierarchical_config(**FAST))
        assert result.overhead.mean_percent > 0.0

    def test_deterministic_given_seed(self):
        config = flexcast_config(num_clients=4, duration_ms=600.0, seed=11)
        first = run_experiment(config)
        second = run_experiment(config)
        assert first.completed == second.completed
        assert first.latency.latencies_for_destination(1) == second.latency.latencies_for_destination(1)

    def test_traffic_counters_populated_for_every_group(self):
        result = run_experiment(flexcast_config(**FAST))
        assert set(result.traffic) == set(range(12))
        assert sum(t.messages_received for t in result.traffic.values()) > 0

    def test_recorded_deliveries_satisfy_atomic_multicast_properties(self):
        from repro.checker import check_trace

        config = flexcast_config(num_clients=8, duration_ms=1000.0, seed=5, record_deliveries=True)
        result = run_experiment(config)
        assert result.deliveries is not None
        messages = {r.message.msg_id: r.message for r in result.deliveries.records}
        check_trace(result.deliveries, messages.values(), expect_all_delivered=True).raise_if_failed()

    def test_gc_keeps_flexcast_histories_bounded(self):
        config = flexcast_config(num_clients=8, duration_ms=2500.0, seed=7, gc_interval_ms=500.0)
        result = run_experiment(config)
        history_sizes = [g.history_size() for g in result.groups.values()]
        # Without GC histories would hold every delivered message (hundreds).
        assert max(history_sizes) < result.completed


class TestLongHorizonGtpcc:
    """The benchmark's gTPC-C shape (overlay O1, 12 groups, 48 clients) for
    4,000 virtual ms: long enough to cross a GC flush and for per-delivery
    cost that grows with |H| to show.  51 s when the gate asked pivot
    reachability backward, about 3 s asked forward (ISSUE 12)."""

    @pytest.fixture(scope="class")
    def run(self):
        from repro.checker import check_trace

        config = flexcast_config(
            overlay="O1", locality=0.90, num_clients=48, duration_ms=4000.0,
            global_only=True, seed=3, record_deliveries=True,
        )
        result = run_experiment(config)
        messages = {r.message.msg_id: r.message for r in result.deliveries.records}
        report = check_trace(
            result.deliveries, messages.values(), expect_all_delivered=True
        )
        return result, report

    def test_every_transaction_completes_across_a_gc_flush(self, run):
        result, report = run
        assert result.issued == result.completed > 4000
        assert all(g.stats["gc_pruned"] > 0 for g in result.groups.values())
        # Integrity, validity, agreement and prefix order hold outright.
        assert [
            str(v) for v in report.violations if v.property_name != "acyclic-order"
        ] == []

    def test_delivery_relation_is_acyclic(self, run):
        """gTPC-C pairs share exactly one group; a notified group acking
        every notifier keeps the order acyclic."""
        _, report = run
        report.raise_if_failed()


class TestRepeatability:
    def test_same_seed_distributed_runs_deliver_in_one_order_in_one_process(self):
        # Skeen breaks timestamp ties by message id; ids minted before or
        # between the runs must not move them.
        config = distributed_config(
            locality=0.90, num_clients=48, duration_ms=300.0, global_only=True,
            seed=1, record_deliveries=True,
        )
        Message.create([0])
        first = run_experiment(config)
        Message.create([0])
        second = run_experiment(config)
        assert (second.issued, second.completed) == (first.issued, first.completed)
        for group in first.groups:
            assert second.deliveries.sequence(group) == first.deliveries.sequence(group)
