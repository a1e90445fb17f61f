"""Collecting and reporting the paper's evaluation metrics.

One module holds the whole raw-events-to-text pipeline (the package surface
is ``repro.metrics``; import from there):

* :class:`LatencyCollector` — accumulates completed transactions and answers
  the per-destination latency / throughput queries behind Figures 5-7 and
  Tables 2-3.  The paper discards the first and last 10% of each run to
  exclude warm-up and cool-down noise; :meth:`LatencyCollector.trimmed`
  implements the same rule.
* :func:`traffic_report` / :class:`NodeTrafficReport` — per-node messages/s,
  average message size and KB/s from the network's byte counters (Figure 8).
* the ``format_*`` helpers — fixed-width text tables in the same layout as
  the paper so measured values can be compared line by line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Sequence,
    Tuple,
)

from ..overlay.base import GroupId
from ..sim.network import NodeTraffic
from ..workload.clients import CompletedTransaction
from .overhead import OverheadReport
from .stats import cdf_points, percentiles


class LatencyCollector:
    """Accumulates completed transactions and answers latency queries."""

    def __init__(self) -> None:
        self.transactions: List[CompletedTransaction] = []

    # ------------------------------------------------------------- collection
    def record(self, txn: CompletedTransaction) -> None:
        self.transactions.append(txn)

    def __len__(self) -> int:
        return len(self.transactions)

    # ---------------------------------------------------------------- trimming
    def trimmed(self, warmup_fraction: float = 0.10) -> "LatencyCollector":
        """Return a collector holding only the middle of the run.

        Drops the transactions completed in the first and last
        ``warmup_fraction`` of the measured time span (the paper's 10%).
        """
        if not self.transactions or warmup_fraction <= 0.0:
            return self
        times = [t.completed_at for t in self.transactions]
        start, end = min(times), max(times)
        span = end - start
        lo = start + warmup_fraction * span
        hi = end - warmup_fraction * span
        trimmed = LatencyCollector()
        trimmed.transactions = [
            t for t in self.transactions if lo <= t.completed_at <= hi
        ]
        # Degenerate tiny runs: keep the original data rather than nothing.
        if not trimmed.transactions:
            trimmed.transactions = list(self.transactions)
        return trimmed

    # ----------------------------------------------------------------- queries
    def global_transactions(self) -> List[CompletedTransaction]:
        return [t for t in self.transactions if t.is_global]

    def latencies_for_destination(self, rank: int, global_only: bool = True) -> List[float]:
        """Latency samples for the ``rank``-th response (1-based).

        Only transactions that actually had at least ``rank`` destinations
        contribute, mirroring how the paper separates 1st/2nd/3rd destination
        charts.
        """
        if rank < 1:
            raise ValueError("destination rank is 1-based")
        source = self.global_transactions() if global_only else self.transactions
        return [
            t.latencies_by_arrival[rank - 1]
            for t in source
            if len(t.latencies_by_arrival) >= rank
        ]

    def completion_latencies(self, global_only: bool = False) -> List[float]:
        """End-to-end latency (last response) for each transaction."""
        source = self.global_transactions() if global_only else self.transactions
        return [t.latencies_by_arrival[-1] for t in source if t.latencies_by_arrival]

    def percentile_table(
        self, ranks: Sequence[int] = (1, 2, 3), ps: Sequence[float] = (90, 95, 99)
    ) -> Dict[int, Dict[float, float]]:
        """The paper's latency tables: {rank: {percentile: value_ms}}.

        Ranks with no samples are omitted (e.g. no 3-destination messages were
        generated in a short run).
        """
        table: Dict[int, Dict[float, float]] = {}
        for rank in ranks:
            samples = self.latencies_for_destination(rank)
            if samples:
                table[rank] = percentiles(samples, ps)
        return table

    def cdf_for_destination(self, rank: int) -> List[Tuple[float, float]]:
        """Empirical CDF of the ``rank``-th destination latency (Figures 5/7)."""
        return cdf_points(self.latencies_for_destination(rank))

    def throughput_ops_per_sec(self) -> float:
        """Completed transactions per (virtual) second over the observed span."""
        if len(self.transactions) < 2:
            return 0.0
        times = [t.completed_at for t in self.transactions]
        span_ms = max(times) - min(times)
        if span_ms <= 0:
            return 0.0
        return len(self.transactions) / (span_ms / 1000.0)


@dataclass
class NodeTrafficReport:
    """Figure 8 rows for a single node."""

    node: GroupId
    messages_per_second: float
    average_message_bytes: float
    kbytes_per_second: float


def traffic_report(
    traffic: Dict[GroupId, NodeTraffic],
    duration_ms: float,
    nodes: Sequence[GroupId],
) -> List[NodeTrafficReport]:
    """Convert raw byte counters into the paper's per-node traffic metrics."""
    if duration_ms <= 0:
        raise ValueError("duration must be positive")
    seconds = duration_ms / 1000.0
    report = []
    for node in nodes:
        stats = traffic.get(node, NodeTraffic())
        report.append(
            NodeTrafficReport(
                node=node,
                messages_per_second=stats.messages_received / seconds,
                average_message_bytes=stats.average_received_size(),
                kbytes_per_second=stats.bytes_received / 1024.0 / seconds,
            )
        )
    return report


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a fixed-width text table (no external dependencies)."""
    rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
    lines = [fmt(list(headers)), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def format_latency_percentiles(
    label: str,
    table: Mapping[int, Mapping[float, float]],
    ps: Sequence[float] = (90, 95, 99),
) -> str:
    """One row of the paper's latency tables (Tables 2 and 3).

    ``table`` maps destination rank -> {percentile -> latency ms}.
    """
    headers = ["config"]
    for rank in sorted(table):
        for p in ps:
            headers.append(f"dst{rank}-{int(p)}p")
    row: List[object] = [label]
    for rank in sorted(table):
        for p in ps:
            row.append(f"{table[rank].get(p, float('nan')):.1f}")
    return format_table(headers, [row])


def format_latency_comparison(
    tables: Mapping[str, Mapping[int, Mapping[float, float]]],
    ps: Sequence[float] = (90, 95, 99),
    ranks: Sequence[int] = (1, 2, 3),
) -> str:
    """Several configurations side by side (whole Table 2 / Table 3)."""
    headers = ["config"] + [f"dst{r}-{int(p)}p" for r in ranks for p in ps]
    rows = []
    for label, table in tables.items():
        row: List[object] = [label]
        for rank in ranks:
            for p in ps:
                value = table.get(rank, {}).get(p)
                row.append("-" if value is None else f"{value:.1f}")
        rows.append(row)
    return format_table(headers, rows)

def format_overhead_report(label: str, report: OverheadReport) -> str:
    """Figure 1 / Figure 9 as text: per-group overhead plus aggregates."""
    rows = [
        [row["group"], row["delivered"], row["received"], f"{row['overhead_percent']:.1f}%"]
        for row in report.as_rows()
    ]
    table = format_table(["group", "delivered", "received", "overhead"], rows)
    footer = (
        f"{label}: mean={report.mean_percent:.2f}% "
        f"(stdev {report.stdev_percent:.2f}) max={report.max_percent:.0f}%"
    )
    return table + "\n" + footer


def format_traffic_report(label: str, rows: Sequence[NodeTrafficReport]) -> str:
    """Figure 8 as text: per-node received messages/s, avg size, KB/s."""
    table_rows = [
        [
            r.node,
            f"{r.messages_per_second:.1f}",
            f"{r.average_message_bytes:.0f}",
            f"{r.kbytes_per_second:.1f}",
        ]
        for r in rows
    ]
    return (
        f"{label}\n"
        + format_table(["node", "msgs/s", "avg bytes", "KB/s"], table_rows)
    )


def format_throughput_series(series: Mapping[str, Mapping[int, float]]) -> str:
    """Figure 6 as text: throughput (ops/s) per protocol per client count."""
    client_counts = sorted({c for table in series.values() for c in table})
    headers = ["protocol"] + [str(c) for c in client_counts]
    rows = []
    for protocol, table in series.items():
        rows.append(
            [protocol]
            + [f"{table.get(c, float('nan')):.0f}" for c in client_counts]
        )
    return format_table(headers, rows)
