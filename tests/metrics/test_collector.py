"""Tests for the latency/throughput/traffic collectors."""

import pytest

from repro.metrics import LatencyCollector, traffic_report
from repro.sim.network import NodeTraffic
from repro.workload.clients import CompletedTransaction


def txn(completed_at, latencies):
    return CompletedTransaction(completed_at, tuple(sorted(latencies)))


class TestLatencyCollector:
    def test_per_destination_rank_queries(self):
        collector = LatencyCollector()
        collector.record(txn(100, [10, 30]))
        collector.record(txn(200, [20, 40, 90]))
        collector.record(txn(300, [15]))  # local: one destination
        assert collector.latencies_for_destination(1) == [10, 20]
        assert collector.latencies_for_destination(2) == [30, 40]
        assert collector.latencies_for_destination(3) == [90]

    def test_rank_must_be_positive(self):
        with pytest.raises(ValueError):
            LatencyCollector().latencies_for_destination(0)

    def test_percentile_table_skips_missing_ranks(self):
        collector = LatencyCollector()
        collector.record(txn(100, [10, 30]))
        table = collector.percentile_table()
        assert set(table) == {1, 2}
        assert table[1][90] == 10

    def test_throughput(self):
        collector = LatencyCollector()
        for i in range(11):
            collector.record(txn(1000 + i * 100, [10]))
        # 11 transactions over a 1-second window.
        assert collector.throughput_ops_per_sec() == pytest.approx(11.0)

    def test_throughput_degenerate_cases(self):
        collector = LatencyCollector()
        assert collector.throughput_ops_per_sec() == 0.0
        collector.record(txn(100, [10]))
        assert collector.throughput_ops_per_sec() == 0.0

    def test_trimming_removes_head_and_tail(self):
        collector = LatencyCollector()
        for i in range(100):
            collector.record(txn(float(i), [1.0]))
        trimmed = collector.trimmed()
        times = [t.completed_at for t in trimmed.transactions]
        assert min(times) >= 9.9 - 1e-9
        assert max(times) <= 89.1 + 1e-9
        assert len(trimmed) < len(collector)

    def test_trimming_keeps_data_for_tiny_runs(self):
        collector = LatencyCollector()
        collector.record(txn(0, [10]))
        collector.record(txn(100, [10]))
        # Both ends fall in the trimmed 10 %: keep them rather than nothing.
        assert len(collector.trimmed()) == 2

    def test_cdf_for_destination(self):
        collector = LatencyCollector()
        collector.record(txn(100, [10, 30]))
        collector.record(txn(200, [20, 40]))
        cdf = collector.cdf_for_destination(1)
        assert cdf == [(10, 0.5), (20, 1.0)]


class TestTrafficReport:
    def test_converts_counters_to_rates(self):
        traffic = {
            1: NodeTraffic(messages_received=100, bytes_received=204_800),
            2: NodeTraffic(),
        }
        rows = traffic_report(traffic, duration_ms=10_000, nodes=[1, 2])
        assert rows[0].node == 1
        assert rows[0].messages_per_second == pytest.approx(10.0)
        assert rows[0].average_message_bytes == pytest.approx(2048.0)
        assert rows[0].kbytes_per_second == pytest.approx(20.0)
        assert rows[1].messages_per_second == 0.0

    def test_requires_positive_duration(self):
        with pytest.raises(ValueError):
            traffic_report({}, duration_ms=0, nodes=[])
