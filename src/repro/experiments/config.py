"""Experiment configuration.

One :class:`ExperimentConfig` fully describes a run: which protocol, on which
overlay, with which gTPC-C locality, how many closed-loop clients, for how
long, and with which random seed.  Every figure of the paper builds its
configurations in :mod:`repro.experiments.figures`, beside its renderer, so
the mapping from the paper's experiments to code is explicit and auditable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

#: Protocol identifiers accepted by the runner.
PROTOCOL_FLEXCAST = "flexcast"
PROTOCOL_HIERARCHICAL = "hierarchical"
PROTOCOL_DISTRIBUTED = "distributed"

VALID_PROTOCOLS = (PROTOCOL_FLEXCAST, PROTOCOL_HIERARCHICAL, PROTOCOL_DISTRIBUTED)

#: Overlay names accepted by the runner (paper Figure 4).
VALID_OVERLAYS = ("O1", "O2", "T1", "T2", "T3", "complete")

#: Default overlay per protocol when the caller does not care.
DEFAULT_OVERLAY = {
    PROTOCOL_FLEXCAST: "O1",
    PROTOCOL_HIERARCHICAL: "T1",
    PROTOCOL_DISTRIBUTED: "complete",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment run."""

    protocol: str = PROTOCOL_FLEXCAST
    overlay: str = "O1"
    #: gTPC-C locality rate (the paper uses 0.90, 0.95 and 0.99).
    locality: float = 0.90
    #: Total number of closed-loop clients, spread evenly over the regions.
    num_clients: int = 48
    #: Virtual time during which clients issue transactions (milliseconds).
    duration_ms: float = 8_000.0
    #: Seed for all randomness (workload, jitter, client staggering).
    seed: int = 1
    #: Latency experiments use only global (multi-warehouse) transactions.
    global_only: bool = True
    #: Uniform jitter added to each link delay (0 keeps runs fully deterministic).
    jitter_ms: float = 2.0
    #: FlexCast flush/garbage-collection period (None disables GC).
    gc_interval_ms: Optional[float] = 2_000.0
    #: Per-client think time between transactions.
    think_time_ms: float = 0.0
    #: Fraction of the run trimmed at each end before computing statistics.
    warmup_fraction: float = 0.10
    #: Record every delivery for the correctness checker (costs memory).
    record_deliveries: bool = False
    #: Friendly label used in reports; defaults to "<protocol> <overlay>".
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.protocol not in VALID_PROTOCOLS:
            raise ValueError(
                f"unknown protocol {self.protocol!r}; expected one of {VALID_PROTOCOLS}"
            )
        if self.overlay not in VALID_OVERLAYS:
            raise ValueError(
                f"unknown overlay {self.overlay!r}; expected one of {VALID_OVERLAYS}"
            )
        if self.protocol == PROTOCOL_FLEXCAST and self.overlay not in ("O1", "O2"):
            raise ValueError("FlexCast runs on C-DAG overlays O1 or O2")
        if self.protocol == PROTOCOL_HIERARCHICAL and self.overlay not in ("T1", "T2", "T3"):
            raise ValueError("the hierarchical protocol runs on trees T1, T2 or T3")
        if self.protocol == PROTOCOL_DISTRIBUTED and self.overlay != "complete":
            raise ValueError("the distributed protocol runs on the complete overlay")
        if not 0.0 < self.locality <= 1.0:
            raise ValueError("locality must be in (0, 1]")
        if self.num_clients < 1:
            raise ValueError("need at least one client")
        if self.duration_ms <= 0:
            raise ValueError("duration must be positive")
        if not 0.0 <= self.warmup_fraction < 0.5:
            raise ValueError("warmup fraction must be in [0, 0.5)")

    @property
    def display_label(self) -> str:
        if self.label:
            return self.label
        if self.protocol == PROTOCOL_DISTRIBUTED:
            return "Distributed"
        pretty = {"flexcast": "FlexCast", "hierarchical": "Hierarchical"}[self.protocol]
        return f"{pretty} {self.overlay}"

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        """A copy with some fields replaced (used by scenario scaling)."""
        return replace(self, **kwargs)


def flexcast_config(**kwargs) -> ExperimentConfig:
    """Convenience constructor for FlexCast configs."""
    kwargs.setdefault("overlay", DEFAULT_OVERLAY[PROTOCOL_FLEXCAST])
    return ExperimentConfig(protocol=PROTOCOL_FLEXCAST, **kwargs)


def hierarchical_config(**kwargs) -> ExperimentConfig:
    """Convenience constructor for hierarchical configs."""
    kwargs.setdefault("overlay", DEFAULT_OVERLAY[PROTOCOL_HIERARCHICAL])
    return ExperimentConfig(protocol=PROTOCOL_HIERARCHICAL, **kwargs)


def distributed_config(**kwargs) -> ExperimentConfig:
    """Convenience constructor for distributed (Skeen) configs."""
    kwargs.setdefault("overlay", DEFAULT_OVERLAY[PROTOCOL_DISTRIBUTED])
    return ExperimentConfig(protocol=PROTOCOL_DISTRIBUTED, **kwargs)
