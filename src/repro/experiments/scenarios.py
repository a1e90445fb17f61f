"""The paper's experiment matrix, expressed as configuration builders.

Every figure/table of the evaluation section maps to one function here; the
benchmarks call these with scaled-down duration/client counts (documented in
EXPERIMENTS.md) so the whole suite runs in minutes, while
``examples/paper_figures.py`` can run them at larger scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from .config import (
    ExperimentConfig,
    distributed_config,
    flexcast_config,
    hierarchical_config,
)


@dataclass(frozen=True)
class Scale:
    """Scaling knobs shared by all scenarios.

    The paper runs ~60 s with up to 1440 clients on a cluster; the default
    scale here keeps every experiment a few virtual seconds with tens of
    clients, which preserves the latency distributions (latency is dominated
    by WAN round trips, not by load, below saturation) while keeping the
    Python simulation fast.
    """

    duration_ms: float = 6_000.0
    num_clients: int = 48
    seed: int = 1

    def apply(self, config: ExperimentConfig) -> ExperimentConfig:
        return config.with_overrides(
            duration_ms=self.duration_ms,
            num_clients=self.num_clients,
            seed=self.seed,
        )


DEFAULT_SCALE = Scale()

#: Client counts for the throughput experiment (paper: 24..1440), scaled.
THROUGHPUT_CLIENT_COUNTS: Sequence[int] = (12, 24, 48, 96, 192, 288)

#: The paper's locality rates.
LOCALITY_RATES: Sequence[float] = (0.90, 0.95, 0.99)


def figure1_scenario(scale: Scale = DEFAULT_SCALE) -> ExperimentConfig:
    """Figure 1: overhead per group, hierarchical T1, 90% locality."""
    return scale.apply(
        hierarchical_config(overlay="T1", locality=0.90, global_only=True)
    )


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


def figure6_scenarios(
    scale: Scale = DEFAULT_SCALE,
    client_counts: Sequence[int] = THROUGHPUT_CLIENT_COUNTS,
) -> List[ExperimentConfig]:
    """Figure 6: throughput vs clients, full gTPC-C mix, 99% locality."""
    configs: List[ExperimentConfig] = []
    for protocol_builder in (flexcast_config, hierarchical_config, distributed_config):
        for clients in client_counts:
            config = protocol_builder(locality=0.99, global_only=False)
            configs.append(
                config.with_overrides(
                    duration_ms=scale.duration_ms,
                    num_clients=clients,
                    seed=scale.seed,
                )
            )
    return configs


def figure7_table3_scenarios(scale: Scale = DEFAULT_SCALE) -> List[ExperimentConfig]:
    """Figure 7 / Table 3: FlexCast O1, Hierarchical T1, Distributed at each locality."""
    configs: List[ExperimentConfig] = []
    for locality in LOCALITY_RATES:
        configs.append(flexcast_config(overlay="O1", locality=locality))
        configs.append(hierarchical_config(overlay="T1", locality=locality))
        configs.append(distributed_config(locality=locality))
    return [scale.apply(c) for c in configs]


def figure8_scenarios(scale: Scale = DEFAULT_SCALE) -> List[ExperimentConfig]:
    """Figure 8: per-node traffic, 99% locality, full mix (paper uses 720 clients)."""
    configs = [
        flexcast_config(overlay="O1", locality=0.99, global_only=False),
        hierarchical_config(overlay="T1", locality=0.99, global_only=False),
        distributed_config(locality=0.99, global_only=False),
    ]
    return [scale.apply(c) for c in configs]


def figure9_table4_scenarios(scale: Scale = DEFAULT_SCALE) -> List[ExperimentConfig]:
    """Figure 9 / Table 4: hierarchical overhead for T1/T2/T3 at each locality."""
    configs = []
    for overlay in ("T1", "T2", "T3"):
        for locality in LOCALITY_RATES:
            configs.append(
                hierarchical_config(overlay=overlay, locality=locality, global_only=True)
            )
    return [scale.apply(c) for c in configs]
