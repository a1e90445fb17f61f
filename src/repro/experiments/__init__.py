"""Evaluation harness: configurations, runner and figure regeneration.

What lives here: the paper's experiment matrix as data.  The main entry
points are :class:`ExperimentConfig` (one fully specified run: protocol,
overlay, workload, scale) with the :func:`flexcast_config` /
:func:`distributed_config` / :func:`hierarchical_config` builders,
:func:`run_experiment` (deploy on the simulator, drive closed-loop
clients, return an :class:`ExperimentResult`), and :func:`run_all` in
:mod:`~repro.experiments.figures`, the one path that regenerates every
figure/table at reduced scale (each distinct configuration runs once).
"""

from .config import (
    ExperimentConfig,
    PROTOCOL_DISTRIBUTED,
    PROTOCOL_FLEXCAST,
    PROTOCOL_HIERARCHICAL,
    distributed_config,
    flexcast_config,
    hierarchical_config,
)
from .figures import (
    ALL_FIGURES,
    DEFAULT_SCALE,
    FigureResult,
    LOCALITY_RATES,
    Scale,
    THROUGHPUT_CLIENT_COUNTS,
    run_all,
)
from .runner import ExperimentResult, build_protocol, run_experiment

__all__ = [
    "ExperimentConfig",
    "PROTOCOL_DISTRIBUTED",
    "PROTOCOL_FLEXCAST",
    "PROTOCOL_HIERARCHICAL",
    "distributed_config",
    "flexcast_config",
    "hierarchical_config",
    "ALL_FIGURES",
    "FigureResult",
    "run_all",
    "ExperimentResult",
    "build_protocol",
    "run_experiment",
    "DEFAULT_SCALE",
    "LOCALITY_RATES",
    "Scale",
    "THROUGHPUT_CLIENT_COUNTS",
]
