#!/usr/bin/env python3
"""Soak: the end-to-end benchmark's ``rejoin`` round, run for as long as asked.

A fresh 2 x 3 process cluster takes the rejoin mix open-loop at 2,000
requests/s; follower (0, 2) is SIGKILLed at 12.5 % of the run and restarted
at 50 %.  Then the end-to-end oracle runs (convergence, loss, duplication,
integrity, pairwise prefix order, ``check_trace`` on a sample), and every
replica's last ``/metrics`` scrape must read zero leaked pending entries,
zero member-index orphans and no more decided values in memory than one
catch-up chunk holds (an applied value lives in the WALs alone, so memory
stays flat however long the run).  Writes one JSON report; exits 1 on any
violation.

    python benchmarks/run_soak.py --seconds 500 --output BENCH_soak.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]

from e2ebench import host, stats, workloads  # noqa: E402

from repro.smr.multipaxos import CATCHUP_CHUNK  # noqa: E402

#: Gauges a replica with nothing leaked reads as zero: the fuzz harness's
#: end-of-run leak oracle, applied to the process cluster.
LEAK_GAUGES = ("flexcast_leaked_pending_entries", "flexcast_member_index_orphans")
#: Decided values a replica holds in memory: the un-applied window, at most
#: ``CATCHUP_CHUNK`` once the run has drained, whatever its length.
MEMORY_GAUGE = "smr_decided_in_memory"
#: Fault marks that count something; the others are times.
COUNT_MARKS = ("recovered_instances", "catchup_entries")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=500.0,
                        help="open-loop window; 500 s is about 1M requests")
    parser.add_argument("--seed", type=int, default=1, help="seed of every generated input")
    parser.add_argument("--output", default="BENCH_soak.json", help="JSON report path")
    args = parser.parse_args(argv)

    work_dir = tempfile.mkdtemp(prefix="soak-")
    provenance = host.provenance(str(ROOT), work_dir, args.seed, False)
    began = time.monotonic()
    done = asyncio.run(workloads.run_round("rejoin", args.seed, args.seconds, True, work_dir))
    wall_s = time.monotonic() - began

    sampler, marks = done.layers["sampler"], done.layers["fault"]
    violations = list(done.violations)
    for (group, index), values in sorted(sampler.last.items()):
        for gauge in LEAK_GAUGES:
            if values.get(gauge) != 0.0:
                violations.append(f"leak: replica {group}/{index} reads {gauge} = {values.get(gauge)}")
        held = values.get(MEMORY_GAUGE, float("inf"))
        if held > CATCHUP_CHUNK:
            violations.append(f"memory: replica {group}/{index} reads {MEMORY_GAUGE} = "
                              f"{held} (> {CATCHUP_CHUNK})")
    latencies = done.opened.latencies_ms()
    report = {
        "provenance": provenance,
        "seconds": args.seconds,
        "wall_s": wall_s,
        "attempted": done.attempted,
        "completed": done.messages,
        "failed": done.failed,
        "violations": violations,
        "latency_ms": {f"p{p}": stats.percentile(latencies, p) for p in (50, 90, 99)},
        "peak_rss_mib": done.rss_mib,
        "sampler_maxima": sampler.maxima,
        "fault": {
            "victim": workloads.VICTIM,
            "kill_s": workloads.KILL_AT * args.seconds,
            "restart_s": workloads.RESTART_AT * args.seconds,
            # Times are seconds since the open loop began.
            **{k: v if k in COUNT_MARKS else v - done.t0 for k, v in marks.items()},
        },
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    latency = report["latency_ms"]
    print(f"soak: {done.messages} of {done.attempted} requests in {wall_s:.0f} s; "
          f"p50 {latency['p50']:.1f} ms, p99 {latency['p99']:.1f} ms; "
          f"victim caught up at {report['fault'].get('caught_up', float('nan')):.1f} s")
    for violation in violations[:20]:
        print(f"VIOLATION: {violation}", file=sys.stderr)
    print(f"oracle: {'clean' if not violations else f'{len(violations)} violations'} "
          f"({args.output} written)")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
