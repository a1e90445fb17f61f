"""Tests for the plain-text report formatting."""

from repro.metrics import NodeTrafficReport
from repro.metrics.overhead import compute_overhead
from repro.metrics.report import (
    format_latency_comparison,
    format_overhead_report,
    format_table,
    format_throughput_series,
    format_traffic_report,
)


class TestFormatTable:
    def test_columns_aligned_and_all_rows_present(self):
        text = format_table(["name", "value"], [["a", 1], ["long-name", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "name" in lines[0] and "value" in lines[0]
        assert "long-name" in lines[3]

    def test_handles_empty_rows(self):
        text = format_table(["x"], [])
        assert "x" in text


class TestLatencyTables:
    def test_comparison_with_missing_ranks(self):
        tables = {
            "FlexCast O1": {1: {90: 10.0, 95: 20.0, 99: 30.0}},
            "Hierarchical T1": {1: {90: 40.0, 95: 50.0, 99: 60.0}, 3: {90: 1.0, 95: 2.0, 99: 3.0}},
        }
        text = format_latency_comparison(tables)
        assert "FlexCast O1" in text and "Hierarchical T1" in text
        assert "-" in text  # missing ranks rendered as dashes


class TestOtherReports:
    def test_overhead_report_text(self):
        report = compute_overhead({1: 9, 2: 10}, {1: 10, 2: 10}, groups=[1, 2])
        text = format_overhead_report("T1 @90%", report)
        assert "T1 @90%" in text and "10.0%" in text and "mean=" in text

    def test_traffic_report_text(self):
        rows = [NodeTrafficReport(node=3, messages_per_second=12.5, average_message_bytes=100.0, kbytes_per_second=1.5)]
        text = format_traffic_report("FlexCast", rows)
        assert "FlexCast" in text and "12.5" in text and "KB/s" in text

    def test_throughput_series_text(self):
        text = format_throughput_series({"FlexCast": {24: 100.0, 48: 180.0}, "Distributed": {24: 90.0}})
        assert "FlexCast" in text and "Distributed" in text and "48" in text
