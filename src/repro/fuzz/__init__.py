"""Deterministic schedule/fault exploration for the FlexCast stack.

This package turns the "one-off example caught a bug" workflow into a
machine-driven state-space sweep, in the spirit of the CADP line of work:

* :mod:`~repro.fuzz.scenario` — a fully serializable description of one run
  (overlay, seeds, fault profile, explicit submission schedule);
* :mod:`~repro.fuzz.workload` — seeded random scenario generation
  (destination-set shapes, burst submission, overlapping conflicts);
* :mod:`~repro.fuzz.profiles` — deterministic fault injection (message
  duplication/loss via ``Network.set_drop_filter``, replica crashes and
  restarts via ``ReplicatedGroup``);
* :mod:`~repro.fuzz.harness` — runs a scenario on the simulator and checks
  the full property suite plus the sequential-replay oracle (and, for
  batched scenarios, the batch-atomicity oracle);
* :mod:`~repro.fuzz.shrink` — ddmin-style reduction of failing scenarios to
  minimal, checked-in regression schedules;
* :mod:`~repro.fuzz.sweep` — the multi-seed, multi-profile sweep runner and
  its CLI (``python -m repro.fuzz.sweep``).
"""

from .harness import FuzzResult, run_scenario
from .scenario import FuzzScenario, Submission
from .shrink import shrink_scenario
from .sweep import SweepSummary, run_sweep
from .workload import generate_scenario

__all__ = [
    "FuzzResult",
    "FuzzScenario",
    "Submission",
    "generate_scenario",
    "run_scenario",
    "run_sweep",
    "shrink_scenario",
    "SweepSummary",
]
