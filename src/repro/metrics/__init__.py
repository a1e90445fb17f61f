"""Measurement substrate: statistics, collection, overhead and reports.

This package is the **one documented surface** for everything that turns
raw runs into numbers — import from ``repro.metrics``, not its submodules.
The main entry points are :class:`LatencyCollector` (per-delivery latency
samples), :func:`traffic_report`
(per-node byte/envelope accounting behind the Figure 8 traffic numbers),
:func:`compute_overhead` (payload vs protocol bytes, Figures 1/9), the
``format_*`` renderers, and the summary statistics in
:mod:`~repro.metrics.stats`.  Collection and rendering live together in
:mod:`~repro.metrics.report` (the former ``repro.metrics.collector`` was
folded in once its last private runtime hook was deleted in the
observability PR).
"""

from .overhead import GroupOverhead, OverheadReport, compute_overhead
from .report import (
    LatencyCollector,
    NodeTrafficReport,
    format_latency_comparison,
    format_overhead_report,
    format_table,
    format_throughput_series,
    format_traffic_report,
    traffic_report,
)
from .stats import cdf_points, mean, percentile, percentiles, stdev

__all__ = [
    "LatencyCollector",
    "NodeTrafficReport",
    "traffic_report",
    "GroupOverhead",
    "OverheadReport",
    "compute_overhead",
    "format_latency_comparison",
    "format_overhead_report",
    "format_table",
    "format_throughput_series",
    "format_traffic_report",
    "cdf_points",
    "mean",
    "percentile",
    "percentiles",
    "stdev",
]
