"""Multi-seed, multi-profile fuzz sweep (library + CLI).

``run_sweep`` explores ``seeds × profiles`` deterministic scenarios, runs the
full oracle suite on each, and shrinks any failure to a minimal schedule.
The CLI form powers both local exploration and the CI ``fuzz-sweep`` job::

    PYTHONPATH=src python -m repro.fuzz.sweep --seeds 50 \
        --profiles none,dup --out-dir fuzz-artifacts

Any shrunk failing schedule is written to ``--out-dir`` as JSON (one file per
failure) so CI can upload it as an artifact and a developer can replay it::

    PYTHONPATH=src python -m repro.fuzz.sweep --replay <schedule.json>
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import List, Optional, Sequence

from ..obs import Observability
from .harness import EXPOSURE_MODES, FuzzResult, peak_rss_mib, run_scenario
from .profiles import PROFILES, apply_profile
from .scenario import FuzzScenario
from .shrink import default_predicate, shrink_scenario
from .workload import generate_scenario


@dataclass
class SweepSummary:
    """Aggregate outcome of a sweep.

    ``failures`` are violations of guaranteed properties (sweep gate);
    ``anomalies`` are runs whose only findings are global acyclic-order
    anomalies — the documented architectural limitation (DESIGN.md).  Both
    get shrunk so the artifacts stay actionable.
    """

    runs: int = 0
    clean: int = 0
    failures: List[FuzzResult] = field(default_factory=list)
    anomalies: List[FuzzResult] = field(default_factory=list)
    shrunk: List[FuzzScenario] = field(default_factory=list)
    #: Runs in which a guard escape fired / a replica rebooted mid-run: a
    #: sweep that never does either says nothing about those paths.
    escape_runs: int = 0
    restart_runs: int = 0
    elapsed_s: float = 0.0
    timed_out: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures


def run_sweep(
    seeds: Sequence[int],
    profiles: Sequence[str] = ("none", "dup"),
    shrink_failures: bool = True,
    time_cap_s: Optional[float] = None,
    progress=None,
    exposure: Optional[str] = None,
    batch_window: Optional[int] = None,
) -> SweepSummary:
    """Run every ``(seed, profile)`` scenario; shrink and collect failures.

    ``exposure`` forces what the timestamp authority orders for every run
    and is recorded on each scenario, shrunk ones included: ``"all"`` and
    ``"declared"`` make acyclic-order findings hard failures, ``"none"``
    reports them as anomalies; ``None`` follows each scenario.
    ``batch_window`` likewise forces the client-side batching window for
    every run (``1`` = unbatched); ``None`` follows each scenario.
    """
    for profile in profiles:
        if profile not in PROFILES:
            raise ValueError(f"unknown profile {profile!r} (know {PROFILES})")
    summary = SweepSummary()
    started = time.monotonic()
    deadline = started + time_cap_s if time_cap_s is not None else float("inf")
    base_fails = default_predicate()

    def fails(candidate: FuzzScenario) -> bool:
        # Shrinking re-runs the scenario up to max_probes times; a probe past
        # the sweep's deadline reports "not failing", which stops the
        # reduction quickly and keeps the best scenario so far — one finding
        # cannot blow a CI time cap.
        return time.monotonic() <= deadline and base_fails(candidate)

    for seed in seeds:
        for profile in profiles:
            if time.monotonic() > deadline:
                summary.timed_out = True
                summary.elapsed_s = time.monotonic() - started
                return summary
            scenario = apply_profile(generate_scenario(seed, profile), profile)
            if exposure is not None:
                # Recorded on the scenario, so its shrunk schedule replays
                # under the mode that found it.
                scenario = replace(scenario, exposure=exposure)
            if batch_window is not None:
                scenario = replace(scenario, batch_window=batch_window)
            result = run_scenario(scenario)
            summary.runs += 1
            summary.escape_runs += result.guard_escapes > 0
            summary.restart_runs += result.restarts > 0
            if result.strict_ok:
                summary.clean += 1
            else:
                (summary.anomalies if result.ok else summary.failures).append(result)
                if shrink_failures:
                    try:
                        summary.shrunk.append(
                            shrink_scenario(scenario, fails=fails, max_probes=300)
                        )
                    except ValueError:
                        # The deadline passed before the shrinker's own
                        # initial failing-run validation.
                        summary.timed_out = True
            if progress is not None:
                progress(seed, profile, result)
    summary.elapsed_s = time.monotonic() - started
    return summary


# ------------------------------------------------------------------------ CLI
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="FlexCast fuzz sweep",
        epilog=(
            "Fuzzing runs in the deterministic simulator.  The same "
            "crash-restart invariants are exercised against real OS "
            "processes by the end-to-end benchmark's rejoin workload, which "
            "benchmarks/run_soak.py runs long — see docs/OPERATIONS.md."
        ),
    )
    parser.add_argument("--seeds", type=int, default=50, help="number of seeds")
    parser.add_argument("--seed-base", type=int, default=0)
    parser.add_argument(
        "--profiles",
        default="none,dup",
        help=f"comma-separated subset of {','.join(PROFILES)}",
    )
    parser.add_argument("--out-dir", default=None, help="write shrunk failures here")
    parser.add_argument("--time-cap-s", type=float, default=None)
    parser.add_argument("--no-shrink", action="store_true")
    parser.add_argument(
        "--exposure",
        choices=EXPOSURE_MODES,
        default=None,
        help="force what the Skeen-timestamp authority orders for every run: "
        "all global messages, the hot components of each scenario's declared "
        "shapes, or none (the paper's protocol; acyclic-order findings are "
        "then reported anomalies instead of hard failures).  Default: "
        "follow each scenario",
    )
    parser.add_argument(
        "--batch",
        dest="batch_window",
        type=int,
        default=None,
        metavar="N",
        help="force the client-side batching window to N for every run "
        "(1 = unbatched; default: follow each scenario's batch_window)",
    )
    parser.add_argument("--replay", default=None, help="replay one schedule JSON")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    if args.replay:
        scenario = FuzzScenario.load(args.replay)
        result = run_scenario(scenario, exposure=args.exposure)
        print(
            f"replayed {scenario.name}: submitted={result.submitted} "
            f"delivered={result.delivered} violations={len(result.violations)} "
            f"ordering anomalies={len(result.ordering_anomalies)}"
        )
        for violation in result.violations + result.ordering_anomalies:
            print(f"  {violation}")
        # A replayed regression schedule reports *any* checked finding.
        return 0 if result.strict_ok else 1

    profiles = [p.strip() for p in args.profiles.split(",") if p.strip()]
    seeds = range(args.seed_base, args.seed_base + args.seeds)

    def progress(seed, profile, result):
        if args.quiet:
            return
        if not result.ok:
            status = f"FAIL({len(result.violations)})"
        elif result.ordering_anomalies:
            status = f"anomaly({len(result.ordering_anomalies)})"
        else:
            status = "ok"
        print(
            f"seed={seed:<4} profile={profile:<21} delivered="
            f"{result.delivered:<5} {status}",
            flush=True,
        )

    summary = run_sweep(
        seeds,
        profiles=profiles,
        shrink_failures=not args.no_shrink,
        time_cap_s=args.time_cap_s,
        progress=progress,
        exposure=args.exposure,
        batch_window=args.batch_window,
    )
    print(
        f"\nsweep: {summary.clean}/{summary.runs} clean, "
        f"{len(summary.failures)} guarantee violations, "
        f"{len(summary.anomalies)} ordering anomalies in "
        f"{summary.elapsed_s:.1f}s"
        + (" (time cap hit)" if summary.timed_out else "")
        + f", peak RSS {peak_rss_mib():.0f} MiB"
    )
    print(
        f"       {summary.escape_runs} runs fired a guard escape, "
        f"{summary.restart_runs} restarted a replica"
    )
    if args.out_dir and summary.shrunk:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for index, scenario in enumerate(summary.shrunk):
            path = out / f"shrunk-{scenario.name}-{index}.json"
            scenario.save(path)
            print(f"wrote {path}")
            # Re-run the shrunk schedule with lifecycle tracing on and dump
            # the per-message timelines next to it (runs are deterministic,
            # so the trace describes exactly the committed failure).  Inspect
            # with: PYTHONPATH=src python -m repro.obs trace <trace.json>
            obs = Observability.with_tracing()
            run_scenario(scenario, obs=obs)
            trace_path = out / f"trace-{scenario.name}-{index}.json"
            obs.tracer.dump_json(trace_path)
            print(f"wrote {trace_path}")
            metrics_path = out / f"metrics-{scenario.name}-{index}.json"
            obs.registry.dump_json(metrics_path)
            print(f"wrote {metrics_path}")
    for failure in summary.failures:
        print(f"\n{failure.scenario.name}:")
        for violation in failure.violations[:10]:
            print(f"  {violation}")
    for anomaly in summary.anomalies:
        print(f"\n{anomaly.scenario.name} (known-limitation ordering anomaly):")
        for violation in anomaly.ordering_anomalies[:5]:
            print(f"  {violation}")
    return 0 if summary.ok else 1


if __name__ == "__main__":
    sys.exit(main())
