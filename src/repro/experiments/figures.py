"""The paper's evaluation (§5): every figure's matrix and its renderer.

Each figure or table has two functions side by side: ``figureN_scenarios``
(``figure1_scenario`` for the one-run Figure 1) builds its experiment matrix
as :class:`ExperimentConfig` values at a :class:`Scale`, and ``figureN`` runs
that matrix and renders it as a :class:`FigureResult`.  A result carries both
machine-readable series (for the claims in
``tests/integration/test_paper_claims.py``) and a ``text`` rendering in the
paper's layout (for EXPERIMENTS.md and the console).

:func:`run_all` is the one evaluation path: the figures it renders share one
:data:`Runs` map, so a configuration in several matrices runs once
(Hierarchical T1 at 90 % locality is in Figures 1, 5, 7 and 9).
``examples/paper_figures.py`` prints it; its output at :data:`DEFAULT_SCALE`
is EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from ..metrics import NodeTrafficReport, traffic_report
from ..metrics.overhead import OverheadReport
from ..metrics.report import (
    format_latency_comparison,
    format_overhead_report,
    format_throughput_series,
    format_traffic_report,
)
from ..overlay.builders import build_o1
from ..sim.latencies import aws_latency_matrix
from .config import (
    ExperimentConfig,
    distributed_config,
    flexcast_config,
    hierarchical_config,
)
from .runner import ExperimentResult, run_experiment

#: Client counts for the throughput experiment (paper: 24..1440), scaled.
THROUGHPUT_CLIENT_COUNTS: Tuple[int, ...] = (12, 24, 48, 96, 192, 288)

#: The paper's locality rates.
LOCALITY_RATES: Sequence[float] = (0.90, 0.95, 0.99)


@dataclass(frozen=True)
class Scale:
    """Scaling knobs shared by all scenarios.

    The paper runs ~60 s with up to 1440 clients on a cluster; the default
    scale here keeps every experiment a few virtual seconds with tens of
    clients, which preserves the latency distributions (latency is dominated
    by WAN round trips, not by load, below saturation) while keeping the
    Python simulation fast.  EXPERIMENTS.md is written at it.
    """

    duration_ms: float = 4_000.0
    num_clients: int = 36
    seed: int = 1
    #: The throughput sweep's client counts (Figure 6).
    client_counts: Tuple[int, ...] = THROUGHPUT_CLIENT_COUNTS

    def apply(self, config: ExperimentConfig) -> ExperimentConfig:
        return replace(
            config,
            duration_ms=self.duration_ms,
            num_clients=self.num_clients,
            seed=self.seed,
        )


DEFAULT_SCALE = Scale()

#: Each distinct configuration's result, shared by the figures of one render.
Runs = Dict[ExperimentConfig, ExperimentResult]


def _run(config: ExperimentConfig, runs: Runs) -> ExperimentResult:
    """``config``'s result, run the first time ``runs`` is asked for it."""
    result = runs.get(config)
    if result is None:
        result = runs[config] = run_experiment(config)
    return result


@dataclass
class FigureResult:
    """Generic container for a regenerated figure or table."""

    name: str
    text: str
    #: Raw experiment results keyed by configuration label.
    results: Dict[str, ExperimentResult] = field(default_factory=dict)
    #: Figure-specific structured data (series, tables, ...).
    data: Dict[str, object] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return f"== {self.name} ==\n{self.text}"


# --------------------------------------------------------------------- Figure 1
def figure1_scenario(scale: Scale = DEFAULT_SCALE) -> ExperimentConfig:
    """Figure 1: overhead per group, hierarchical T1, 90% locality."""
    return scale.apply(
        hierarchical_config(overlay="T1", locality=0.90, global_only=True)
    )


def figure1(scale: Scale, runs: Runs) -> FigureResult:
    """Figure 1: communication overhead per group (hierarchical T1, 90% locality)."""
    result = _run(figure1_scenario(scale), runs)
    report = result.overhead
    text = format_overhead_report("Hierarchical T1, 90% locality", report)
    return FigureResult(
        name="Figure 1 — hierarchical communication overhead (T1, 90% locality)",
        text=text,
        results={result.label: result},
        data={
            "overhead_percent_by_group": {
                g: report.overhead_percent(g) for g in report.groups_sorted()
            },
            "mean_percent": report.mean_percent,
            "max_percent": report.max_percent,
        },
    )


# ------------------------------------------------------------ Figure 5 / Table 2
def figure5_table2_scenarios(scale: Scale = DEFAULT_SCALE) -> List[ExperimentConfig]:
    """Figure 5 / Table 2: FlexCast O1 & O2 and Hierarchical T1/T2/T3 at 90%."""
    configs = [
        flexcast_config(overlay="O1", locality=0.90),
        flexcast_config(overlay="O2", locality=0.90),
        hierarchical_config(overlay="T1", locality=0.90),
        hierarchical_config(overlay="T2", locality=0.90),
        hierarchical_config(overlay="T3", locality=0.90),
    ]
    return [scale.apply(c) for c in configs]


def figure5_table2(scale: Scale, runs: Runs) -> FigureResult:
    """Figure 5 + Table 2: per-destination latency when varying the overlay."""
    results: Dict[str, ExperimentResult] = {}
    tables: Dict[str, Mapping[int, Mapping[float, float]]] = {}
    cdfs: Dict[str, Dict[int, List[Tuple[float, float]]]] = {}
    for config in figure5_table2_scenarios(scale):
        result = _run(config, runs)
        results[result.label] = result
        tables[result.label] = result.latency_table()
        cdfs[result.label] = {
            rank: result.latency.cdf_for_destination(rank) for rank in (1, 2, 3)
        }
    text = format_latency_comparison(tables)
    return FigureResult(
        name="Figure 5 / Table 2 — latency per destination, varying overlays (90% locality)",
        text=text,
        results=results,
        data={"percentiles": tables, "cdfs": cdfs},
    )


# --------------------------------------------------------------------- Figure 6
def figure6_scenarios(scale: Scale = DEFAULT_SCALE) -> List[ExperimentConfig]:
    """Figure 6: throughput vs clients, full gTPC-C mix, 99% locality."""
    return [
        replace(scale, num_clients=clients).apply(
            protocol_builder(locality=0.99, global_only=False)
        )
        for protocol_builder in (flexcast_config, hierarchical_config, distributed_config)
        for clients in scale.client_counts
    ]


def figure6(scale: Scale, runs: Runs) -> FigureResult:
    """Figure 6: throughput vs number of clients (99% locality, full mix)."""
    series: Dict[str, Dict[int, float]] = {}
    results: Dict[str, ExperimentResult] = {}
    for config in figure6_scenarios(scale):
        result = _run(config, runs)
        label = result.label
        series.setdefault(label, {})[config.num_clients] = result.throughput_ops_per_sec
        results[f"{label}@{config.num_clients}"] = result
    text = format_throughput_series(series)
    return FigureResult(
        name="Figure 6 — throughput vs number of clients (99% locality)",
        text=text,
        results=results,
        data={"throughput_ops_per_sec": series},
    )


# ------------------------------------------------------------ Figure 7 / Table 3
def figure7_table3_scenarios(scale: Scale = DEFAULT_SCALE) -> List[ExperimentConfig]:
    """Figure 7 / Table 3: FlexCast O1, Hierarchical T1, Distributed at each locality."""
    configs: List[ExperimentConfig] = []
    for locality in LOCALITY_RATES:
        configs.append(flexcast_config(overlay="O1", locality=locality))
        configs.append(hierarchical_config(overlay="T1", locality=locality))
        configs.append(distributed_config(locality=locality))
    return [scale.apply(c) for c in configs]


def figure7_table3(scale: Scale, runs: Runs) -> FigureResult:
    """Figure 7 + Table 3: per-destination latency when varying the locality rate."""
    results: Dict[str, ExperimentResult] = {}
    tables: Dict[str, Mapping[int, Mapping[float, float]]] = {}
    cdfs: Dict[str, Dict[int, List[Tuple[float, float]]]] = {}
    for config in figure7_table3_scenarios(scale):
        result = _run(config, runs)
        label = f"{result.label} @{int(config.locality * 100)}%"
        results[label] = result
        tables[label] = result.latency_table()
        cdfs[label] = {
            rank: result.latency.cdf_for_destination(rank) for rank in (1, 2, 3)
        }
    text = format_latency_comparison(tables)
    return FigureResult(
        name="Figure 7 / Table 3 — latency per destination, varying locality",
        text=text,
        results=results,
        data={"percentiles": tables, "cdfs": cdfs},
    )


# --------------------------------------------------------------------- Figure 8
def figure8_scenarios(scale: Scale = DEFAULT_SCALE) -> List[ExperimentConfig]:
    """Figure 8: per-node traffic, 99% locality, full mix (paper uses 720 clients)."""
    configs = [
        flexcast_config(overlay="O1", locality=0.99, global_only=False),
        hierarchical_config(overlay="T1", locality=0.99, global_only=False),
        distributed_config(locality=0.99, global_only=False),
    ]
    return [scale.apply(c) for c in configs]


def figure8(scale: Scale, runs: Runs) -> FigureResult:
    """Figure 8: messages/s, average message size and KB/s per node."""
    latencies = aws_latency_matrix()
    o1_order = build_o1(latencies).order  # the paper orders FlexCast nodes by C-DAG rank
    results: Dict[str, ExperimentResult] = {}
    reports: Dict[str, List[NodeTrafficReport]] = {}
    texts: List[str] = []
    for config in figure8_scenarios(scale):
        result = _run(config, runs)
        results[result.label] = result
        order = o1_order if config.protocol == "flexcast" else sorted(result.traffic)
        rows = traffic_report(result.traffic, result.duration_ms, order)
        reports[result.label] = rows
        texts.append(format_traffic_report(result.label, rows))
    return FigureResult(
        name="Figure 8 — information exchanged per node (99% locality)",
        text="\n\n".join(texts),
        results=results,
        data={
            "per_node": {
                label: [
                    {
                        "node": r.node,
                        "messages_per_second": r.messages_per_second,
                        "average_message_bytes": r.average_message_bytes,
                        "kbytes_per_second": r.kbytes_per_second,
                    }
                    for r in rows
                ]
                for label, rows in reports.items()
            },
            "average_kbytes_per_second": {
                label: (
                    sum(r.kbytes_per_second for r in rows) / len(rows) if rows else 0.0
                )
                for label, rows in reports.items()
            },
        },
    )


# ------------------------------------------------------------ Figure 9 / Table 4
def figure9_table4_scenarios(scale: Scale = DEFAULT_SCALE) -> List[ExperimentConfig]:
    """Figure 9 / Table 4: hierarchical overhead for T1/T2/T3 at each locality."""
    configs = []
    for overlay in ("T1", "T2", "T3"):
        for locality in LOCALITY_RATES:
            configs.append(
                hierarchical_config(overlay=overlay, locality=locality, global_only=True)
            )
    return [scale.apply(c) for c in configs]


def figure9_table4(scale: Scale, runs: Runs) -> FigureResult:
    """Figure 9 + Table 4: hierarchical overhead per group and per tree/locality."""
    results: Dict[str, ExperimentResult] = {}
    per_group: Dict[str, Dict[int, float]] = {}
    table4_rows: List[Dict[str, object]] = []
    texts: List[str] = []
    for config in figure9_table4_scenarios(scale):
        result = _run(config, runs)
        label = f"{config.overlay} @{int(config.locality * 100)}%"
        results[label] = result
        report: OverheadReport = result.overhead
        per_group[label] = {
            g: report.overhead_percent(g) for g in report.groups_sorted()
        }
        table4_rows.append(
            {
                "overlay": config.overlay,
                "locality": config.locality,
                "mean_percent": report.mean_percent,
                "stdev_percent": report.stdev_percent,
                "max_percent": report.max_percent,
            }
        )
        texts.append(format_overhead_report(label, report))
    return FigureResult(
        name="Figure 9 / Table 4 — hierarchical overhead across trees and localities",
        text="\n\n".join(texts),
        results=results,
        data={"per_group_percent": per_group, "table4": table4_rows},
    )


ALL_FIGURES = {
    "1": figure1,
    "5": figure5_table2,
    "6": figure6,
    "7": figure7_table3,
    "8": figure8,
    "9": figure9_table4,
}


def run_all(
    scale: Scale = DEFAULT_SCALE, keys: Iterable[str] = ALL_FIGURES
) -> Dict[str, FigureResult]:
    """Render the figures named by ``keys`` (every one by default) at
    ``scale``, running each distinct configuration of their matrices once."""
    runs: Runs = {}
    return {key: ALL_FIGURES[key](scale, runs) for key in keys}
