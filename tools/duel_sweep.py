#!/usr/bin/env python3
"""Sweep seeded duelling-leader schedules and count the ones that never settle.

Two replicas that both believe they lead (false suspicion) outbid each
other's ballots; nothing backs a preempted proposer off, so whether a duel
ends depends on how its messages interleave.  This sweeps 240 seeded
schedules — 3 and 5 replicas, network jitter 0 and 0.5 ms, 60 seeds each,
every schedule a burst of commands at each duellist at seeded times — and
reports how many exhaust the event budget (ROADMAP, correctness (c)).

Each replica keeps its WALs in an ``InMemoryStorage`` of its own:
``storage`` is a required argument of ``MultiPaxosReplica``, so the file runs
against this commit and later ones, not against a checkout from before the
constructor changed:  ``PYTHONPATH=<checkout>/src python tools/duel_sweep.py``.
Exits 1 if any schedule ends with replicas that disagree.
"""

from __future__ import annotations

import random
import sys

from repro.sim.events import EventLoop
from repro.sim.latencies import LatencyMatrix
from repro.sim.network import Network
from repro.sim.transport import SimTransport
from repro.smr.multipaxos import MultiPaxosReplica
from repro.storage import InMemoryStorage

SEEDS = 60
BUDGET = 20_000


def run_schedule(n: int, jitter_ms: float, seed: int) -> str:
    """``"settled"``, ``"stuck"`` (budget exhausted) or ``"diverged"``."""
    rng = random.Random(seed)
    loop = EventLoop()
    matrix = LatencyMatrix(
        matrix=[[1.0 if a != b else 0.1 for b in range(n)] for a in range(n)],
        names=[f"s{i}" for i in range(n)],
    )
    network = Network(loop, matrix, jitter_ms=jitter_ms, seed=seed)
    ids = [f"r{i}" for i in range(n)]
    applied = {rid: [] for rid in ids}
    replicas = {}
    for i, rid in enumerate(ids):
        replicas[rid] = MultiPaxosReplica(
            rid, ids, SimTransport(network, rid),
            apply=lambda inst, value, rid=rid: applied[rid].append(value),
            storage=InMemoryStorage(),
        )
        network.register(rid, site=i, handler=replicas[rid].on_message)
    # r1 wrongly suspects r0: both lead.  Odd seeds spread the bursts over a
    # few milliseconds, even seeds fire them in lockstep.
    replicas["r1"].mark_failed("r0")
    commands = []
    for i in range(rng.randint(2, 6)):
        for rid in ("r0", "r1"):
            command = f"{rid}-{i}"
            commands.append(command)
            at = rng.uniform(0.0, 4.0) if seed % 2 else 0.0
            loop.schedule_at(at, lambda rid=rid, c=command: replicas[rid].submit(c))
    try:
        loop.run_until_idle(max_events=BUDGET)
    except RuntimeError:
        return "stuck"
    log = applied["r1"]
    agree = all(applied[rid] == log[: len(applied[rid])] for rid in ids)
    return "settled" if agree and sorted(log) == sorted(commands) else "diverged"


def main() -> int:
    totals = {"settled": 0, "stuck": 0, "diverged": 0}
    for n in (3, 5):
        for jitter_ms in (0.0, 0.5):
            row = {"settled": 0, "stuck": 0, "diverged": 0}
            for seed in range(SEEDS):
                row[run_schedule(n, jitter_ms, seed)] += 1
            print(f"replicas={n} jitter={jitter_ms}: {row}")
            for key, count in row.items():
                totals[key] += count
    print(f"total of {4 * SEEDS}: {totals}")
    return 1 if totals["diverged"] else 0


if __name__ == "__main__":
    sys.exit(main())
