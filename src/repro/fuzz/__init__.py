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
  the paper's properties (:func:`repro.checker.check_trace`), plus replica
  agreement and recovery for replicated scenarios and batch atomicity for
  batched ones;
* :mod:`~repro.fuzz.explore` — enumerates every interleaving of a small
  instance and runs the same :func:`~repro.checker.check_trace` at each
  leaf;
* :mod:`~repro.fuzz.shrink` — ddmin-style reduction of failing scenarios to
  minimal, checked-in regression schedules;
* :mod:`~repro.fuzz.sweep` — the multi-seed, multi-profile sweep runner and
  its CLI (``python -m repro.fuzz.sweep``).
"""

from .. import lazy_exports

#: Public name -> the submodule defining it, imported on first use (PEP 562):
#: ``python -m repro.fuzz.sweep`` must not find its own module imported by
#: the package before it runs.
_EXPORTS = {
    "FuzzResult": ".harness",
    "run_scenario": ".harness",
    "FuzzScenario": ".scenario",
    "Submission": ".scenario",
    "shrink_scenario": ".shrink",
    "SweepSummary": ".sweep",
    "run_sweep": ".sweep",
    "generate_scenario": ".workload",
}

__all__ = [*_EXPORTS]

__getattr__ = lazy_exports(__name__, _EXPORTS)
