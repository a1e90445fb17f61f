#!/usr/bin/env python
"""Standalone micro-benchmark harness for the FlexCast core hot path.

Times the operations that dominate per-delivery cost — ``diff_for``,
``merge_delta``, the full lca delivery round (plain, hybrid, batched and
behind 64 acked pivots) and a coordinator re-planning pass — at several
history sizes,
plus a throughput-vs-batch-size sweep, and writes the numbers to
``BENCH_micro.json`` so the perf trajectory is tracked across PRs (see
DESIGN.md for the complexity tables and amortization claims these numbers
validate).

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py
    PYTHONPATH=src python benchmarks/run_bench.py --sizes 200,1000 --with-tests

``--with-tests`` first runs the tier-1 pytest suite and records its outcome in
the report; CI wires both together (.github/workflows/ci.yml).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.flexcast import FlexCastGroup  # noqa: E402
from repro.core.history import History, HistoryDiffTracker  # noqa: E402
from repro.core.message import (  # noqa: E402
    FlexCastBatch,
    FlexCastNotif,
    FlexCastTsPropose,
    HistoryDelta,
    Message,
)
from repro.core.pivot_guard import PivotGuard  # noqa: E402
from repro.core.timestamps import Exposure  # noqa: E402
from repro.obs import Observability  # noqa: E402
from repro.overlay.cdag import CDagOverlay  # noqa: E402
from repro.protocols.base import RecordingSink  # noqa: E402
from repro.sim.transport import RecordingTransport  # noqa: E402
from repro.storage import FileStorage  # noqa: E402
from repro.workload.soak import provenance  # noqa: E402

DEFAULT_SIZES = (200, 1000, 5000)
#: Aim for roughly this much wall time per measurement.
TARGET_SECONDS = 0.25
MIN_ITERS = 5


def build_chain_history(length: int) -> History:
    """The chain shape: each delivery depends on the previous one."""
    history = History()
    for i in range(length):
        history.record_delivery(Message(msg_id=f"m{i}", dst=frozenset({i % 4})))
    return history


def _measure(op: Callable[[], None], repeat: int) -> Dict[str, float]:
    """Run ``op`` until ~TARGET_SECONDS, ``repeat`` times; keep the best run."""
    # Calibrate the iteration count on a short warm-up.
    op()
    start = time.perf_counter()
    op()
    single = max(time.perf_counter() - start, 1e-9)
    iters = max(MIN_ITERS, int(TARGET_SECONDS / single))
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(iters):
            op()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed / iters)
    return {"ops_per_sec": 1.0 / best, "seconds_per_op": best, "iters": iters}


#: Paired-measurement shape: many short alternating slices, best-of each side.
PAIRED_ROUNDS = 40
PAIRED_SLICE_SECONDS = 0.03


def _measure_paired(
    base_op: Callable[[], None],
    variant_op: Callable[[], None],
    rounds: int = PAIRED_ROUNDS,
) -> Dict[str, float]:
    """Best-of paired measurement: the overhead of ``variant_op`` over
    ``base_op``.

    Sequential measurement (all of A, then all of B, possibly minutes
    apart) lets machine-speed drift masquerade as overhead — far more than
    the few percent a tight gate wants to resolve.  Interleaving many short
    slices (A, B, A, B, ...) samples both operations across the same wall
    window, and taking the best slice for each side means both per-op times
    come from the machine's quiet moments, so drift largely cancels.
    """
    bests = []
    iterss = []
    for op in (base_op, variant_op):
        op()
        start = time.perf_counter()
        op()
        single = max(time.perf_counter() - start, 1e-9)
        iterss.append(max(MIN_ITERS, int(PAIRED_SLICE_SECONDS / single)))
        bests.append(float("inf"))
    for _ in range(rounds):
        for slot, op in enumerate((base_op, variant_op)):
            start = time.perf_counter()
            for _ in range(iterss[slot]):
                op()
            elapsed = time.perf_counter() - start
            bests[slot] = min(bests[slot], elapsed / iterss[slot])
    return {
        "base_ops_per_sec": 1.0 / bests[0],
        "variant_ops_per_sec": 1.0 / bests[1],
        "overhead": bests[1] / bests[0],
    }


# ------------------------------------------------------------- benchmark defs
def bench_diff_for(size: int) -> Callable[[], None]:
    """Steady state: the descendant is up to date, the diff is empty.

    This is the per-send cost on the delivery hot path once a descendant has
    been bootstrapped — the acceptance metric for the incremental indexes.
    """
    history = build_chain_history(size)
    tracker = HistoryDiffTracker()
    tracker.diff_for("peer", history)

    def op() -> None:
        assert tracker.diff_for("peer", history).is_empty

    return op


def bench_diff_for_cold(size: int) -> Callable[[], None]:
    """First contact: a brand-new descendant asks for the entire history.

    Past :data:`~repro.core.history.COLD_SYNC_MIN_ENTRIES` this takes the
    packed-snapshot path: the snapshot is built once, cached on the history
    and shared by reference across cold callers, so each further cold diff is
    O(suffix) — flat in |H| (the ``--flat`` gate enforces it).  The old path
    re-materialised every vertex/edge tuple per reconnect.
    """
    history = build_chain_history(size)
    history.live_snapshot()  # build + cache once, outside the timed op

    def op() -> None:
        assert HistoryDiffTracker().diff_for("peer", history).snapshot is not None

    return op


#: Entries in the fixed-size delta ``bench_merge_delta`` merges per op.
MERGE_DELTA_ENTRIES = 100


def bench_merge_delta(size: int) -> Callable[[], None]:
    """Merge a fixed-size (~100-message) delta into an |H|-sized history.

    The shape the protocol actually executes in steady state: a bounded
    batch of new entries landing in a large existing history (the old
    definition — a full |H|-sized delta into an empty history — was
    inherently O(|H|)/op and now lives in ``cold_sync``).  Per-op cost must
    be O(delta), flat in |H|; the ``--flat`` gate enforces it.  The base
    history is rebuilt once per cycle of ``size / 100`` merges, so the
    amortized rebuild cost is also O(delta) and identical across sizes.
    """
    rounds = max(1, size // MERGE_DELTA_ENTRIES)
    deltas = []
    for r in range(rounds):
        source = History()
        for j in range(MERGE_DELTA_ENTRIES):
            source.record_delivery(
                Message(msg_id=f"d{r}-{j}", dst=frozenset({j % 4}))
            )
        deltas.append(source.full_delta())
    state = {"history": build_chain_history(size), "r": 0}

    def op() -> None:
        r = state["r"]
        if r == 0 and len(state["history"]) > size:
            state["history"] = build_chain_history(size)
        state["history"].merge_delta(deltas[r])
        state["r"] = (r + 1) % rounds

    return op


def bench_cold_sync(size: int) -> Callable[[], None]:
    """One full cold sync: packed snapshot bulk-installed into a new history.

    O(|H|)/op by design — this measures the per-entry constant of the
    wholesale index swap (:meth:`History.merge_delta`'s fresh fast
    path), not flatness, so it is *not* in the ``--flat`` gate; divide
    op/s by |H| to compare per-entry rates across sizes.
    """
    delta = build_chain_history(size).cold_delta()

    def op() -> None:
        target = History()
        target.merge_delta(delta)
        assert len(target) == size

    return op


def bench_delivery_round(size: int) -> Callable[[], None]:
    """One steady-state lca delivery round with |H| = ``size``.

    The group already holds a history of ``size`` messages and its
    destinations are up to date; each operation is one new client request:
    deliver locally, diff the history for both other destinations, forward.
    """
    overlay = CDagOverlay(list(range(12)))
    group = FlexCastGroup(0, overlay, RecordingTransport(0), RecordingSink())
    for i in range(size):
        group.history.record_delivery(
            Message(msg_id=f"fill-{i}", dst=frozenset({0, 3, 7}))
        )
    for dest in (3, 7):
        group.diff_tracker.diff_for(dest, group.history)
    counter = {"i": 0}

    def op() -> None:
        counter["i"] += 1
        group.on_client_request(
            Message(msg_id=f"bench-{counter['i']}", dst=frozenset({0, 3, 7}))
        )

    return op


def bench_delivery_round_hybrid(size: int) -> Callable[[], None]:
    """One steady-state lca delivery round with the hybrid Skeen-timestamp
    ordering authority on (|H| = ``size``).

    Same shape as ``delivery_round`` plus the hybrid overhead: the client
    request mints a local Skeen proposal (broadcast to the two peers), both
    peers' proposals arrive, the final timestamp decides and the convoy gate
    releases the delivery.  The gap to ``delivery_round`` is the paper's
    convoy-effect cost on the gated hot path, which the CI gate bounds.
    """
    overlay = CDagOverlay(list(range(12)))
    group = FlexCastGroup(
        0, overlay, RecordingTransport(0), RecordingSink(), exposure=Exposure.all()
    )
    for i in range(size):
        group.history.record_delivery(
            Message(msg_id=f"fill-{i}", dst=frozenset({0, 3, 7}))
        )
    for dest in (3, 7):
        group.diff_tracker.diff_for(dest, group.history)
    counter = {"i": 0}

    def op() -> None:
        counter["i"] += 1
        mid = f"bench-{counter['i']}"
        message = Message(msg_id=mid, dst=frozenset({0, 3, 7}))
        group.on_client_request(message)
        assert group.ts is not None
        local_ts = group.ts.pending[mid].local_timestamp
        for peer in (3, 7):
            group.on_envelope(
                peer,
                FlexCastTsPropose(
                    message=message, timestamp=local_ts, from_group=peer
                ),
            )
        assert group.has_delivered(mid)

    return op


#: Window the batched delivery benchmark coalesces under (and the size the
#: CI gate's >=2x-throughput claim is made at; see DESIGN.md "batching the
#: delivery path").
BATCH_WINDOW = 16


def bench_delivery_round_batched(
    size: int, batch: int = BATCH_WINDOW
) -> Callable[[], None]:
    """One steady-state lca delivery round fed by batches of ``batch``.

    Same shape as ``delivery_round``, but each operation submits one
    :class:`FlexCastBatch` of ``batch`` client messages: the group orders
    the carrier once — one history vertex, one diff per destination, one
    envelope per destination — and fans it out into ``batch`` application
    deliveries.  Numbers are normalized to **messages**/sec (see
    ``BENCH_SCALE``), so this benchmark is directly comparable to
    ``delivery_round``: the ratio is the amortization batching buys on the
    delivery hot path.
    """
    overlay = CDagOverlay(list(range(12)))
    group = FlexCastGroup(0, overlay, RecordingTransport(0), RecordingSink())
    dst = frozenset({0, 3, 7})
    for i in range(size):
        group.history.record_delivery(Message(msg_id=f"fill-{i}", dst=dst))
    for dest in (3, 7):
        group.diff_tracker.diff_for(dest, group.history)
    counter = {"i": 0}

    def op() -> None:
        counter["i"] += 1
        base = counter["i"] * batch
        members = tuple(
            Message(msg_id=f"bench-{base + j}", dst=dst) for j in range(batch)
        )
        carrier = Message.batch_of(members, batch_id=f"bench-batch-{counter['i']}")
        group.on_envelope("client", FlexCastBatch(message=carrier))
        assert group.has_delivered(carrier.msg_id)

    return op


def bench_delivery_round_pivots(size: int) -> Callable[[], None]:
    """``delivery_round`` in the state the pivot guard works in.

    A three-group round at group 3, which has acked ``MAX_PIVOTS`` (64)
    Strategy (c) pivots — each ordered after the whole |H|-sized history —
    and holds three undelivered local messages, each followed by a few
    messages an ancestor ordered after it.  Every round asks whether the new
    message or a blocker precedes any pivot (guard, then promise-maintenance
    re-ack).  Asked backward from the pivots that was 2 x 64 walks over the
    whole history per round; asked forward from the undelivered end it must
    be flat in |H| (the ``--flat`` gate enforces it).
    """
    overlay = CDagOverlay(list(range(12)))
    group = FlexCastGroup(3, overlay, RecordingTransport(3), RecordingSink())
    dst = frozenset({3, 7, 9})
    for i in range(size):
        group.history.record_delivery(Message(msg_id=f"fill-{i}", dst=dst))
    for dest in (7, 9):
        group.diff_tracker.diff_for(dest, group.history)
    last = f"fill-{size - 1}"
    elsewhere = frozenset({0, 9})
    for k in range(PivotGuard.MAX_PIVOTS):
        pivot = Message(msg_id=f"pivot-{k}", dst=elsewhere)
        delta = HistoryDelta(
            vertices=((pivot.msg_id, elsewhere),), edges=((last, pivot.msg_id),)
        )
        group.on_envelope(0, FlexCastNotif(message=pivot, history=delta, from_group=0))
    vertices, edges = [], []
    for u in range(3):
        chain = [f"open-{u}"] + [f"after-{u}-{j}" for j in range(5)]
        vertices.append((chain[0], frozenset({0, 3})))
        vertices += [(mid, elsewhere) for mid in chain[1:]]
        edges += list(zip([last] + chain, chain))
    # A further notif carries the open messages; it parks behind them.
    parked = Message(msg_id="pivot-parked", dst=elsewhere)
    group.on_envelope(
        0,
        FlexCastNotif(
            message=parked,
            history=HistoryDelta(vertices=tuple(vertices), edges=tuple(edges)),
            from_group=0,
        ),
    )
    assert len(group.guard.pivots) == PivotGuard.MAX_PIVOTS
    assert len(group.open_dependencies()) == 3
    counter = {"i": 0}

    def op() -> None:
        counter["i"] += 1
        mid = f"bench-{counter['i']}"
        group.on_client_request(Message(msg_id=mid, dst=dst))
        assert group.has_delivered(mid)

    return op


def bench_wal_append(size: int) -> Callable[[], None]:
    """One durable WAL append (FileStorage, default fsync batching).

    The per-mutation cost the durability layer adds to every history/SMR
    state change: CRC-framed JSON encode + buffered write + flush, with an
    fsync every ``fsync_every`` records.  ``size`` shapes the record (a
    realistic ``["d", msg_id]`` delivery entry); the file is reset whenever
    it reaches ``size`` records so steady state, not file growth, is timed.
    """
    tmp = tempfile.TemporaryDirectory(prefix="bench-wal-")
    wal = FileStorage(tmp.name).wal("bench")
    counter = {"i": 0, "_dir": tmp}  # keep the tempdir alive via the closure

    def op() -> None:
        counter["i"] += 1
        wal.append(["d", f"bench-{counter['i']}"])
        if len(wal) >= size:
            wal.reset([])

    return op


def bench_delivery_round_obs(size: int) -> Callable[[], None]:
    """``delivery_round`` with the full observability layer attached.

    Same steady-state lca round as ``delivery_round``, but the group carries
    a metrics registry *and* a lifecycle tracer
    (:meth:`Observability.with_tracing` — the most expensive configuration:
    every delivery records stage spans on top of the stats counters).  The
    gap to ``delivery_round`` is the instrumentation tax on the hot path,
    which the CI gate bounds at ``--max-obs-overhead`` (1.05 = 5%).
    """
    overlay = CDagOverlay(list(range(12)))
    group = FlexCastGroup(0, overlay, RecordingTransport(0), RecordingSink())
    group.attach_obs(Observability.with_tracing())
    for i in range(size):
        group.history.record_delivery(
            Message(msg_id=f"fill-{i}", dst=frozenset({0, 3, 7}))
        )
    for dest in (3, 7):
        group.diff_tracker.diff_for(dest, group.history)
    counter = {"i": 0}

    def op() -> None:
        counter["i"] += 1
        group.on_client_request(
            Message(msg_id=f"bench-{counter['i']}", dst=frozenset({0, 3, 7}))
        )

    return op


BENCHMARKS: Dict[str, Callable[[int], Callable[[], None]]] = {
    "diff_for": bench_diff_for,
    "diff_for_cold": bench_diff_for_cold,
    "merge_delta": bench_merge_delta,
    "cold_sync": bench_cold_sync,
    "delivery_round": bench_delivery_round,
    "delivery_round_hybrid": bench_delivery_round_hybrid,
    "delivery_round_batched": bench_delivery_round_batched,
    "delivery_round_obs": bench_delivery_round_obs,
    "delivery_round_pivots": bench_delivery_round_pivots,
    "wal_append": bench_wal_append,
}

#: Application messages processed per measured operation.  ``_measure`` times
#: operations; entries here rescale the report to messages/sec so batched and
#: unbatched delivery benchmarks stay directly comparable.
BENCH_SCALE: Dict[str, int] = {
    "delivery_round_batched": BATCH_WINDOW,
}


def run_batch_sweep(
    batch_sizes: List[int],
    history_size: int,
    repeat: int,
    known: Optional[Dict[int, float]] = None,
) -> Dict[str, object]:
    """Throughput vs batch size at one history size (messages/sec).

    Batch size 1 runs the plain (unbatched) delivery round — by the
    bit-identity contract that *is* what a window of one executes — so the
    per-entry ``speedup`` column reads as "×N over unbatched".  ``known``
    maps windows to msgs/sec already measured elsewhere this run (the main
    benchmark loop covers windows 1 and :data:`BATCH_WINDOW`), so those
    cells are not timed twice.
    """
    known = known or {}
    sweep: Dict[str, object] = {"history_size": history_size, "windows": {}}
    windows: Dict[str, Dict[str, float]] = {}
    # The speedup denominator is always the unbatched round, resolved up
    # front so the column is correct whatever order (or subset) of windows
    # the caller asked for.
    base_msgs = known.get(1)
    if base_msgs is None:
        base_msgs = _measure(bench_delivery_round(history_size), repeat=repeat)[
            "ops_per_sec"
        ]
    for batch in batch_sizes:
        if batch <= 1:
            msgs_per_sec = base_msgs
        elif batch in known:
            msgs_per_sec = known[batch]
        else:
            measurement = _measure(
                bench_delivery_round_batched(history_size, batch=batch),
                repeat=repeat,
            )
            msgs_per_sec = measurement["ops_per_sec"] * batch
        windows[str(batch)] = {
            "messages_per_sec": msgs_per_sec,
            "speedup_vs_unbatched": (
                msgs_per_sec / base_msgs if base_msgs > 0 else 0.0
            ),
        }
        print(
            f"batch_sweep |H|={history_size} window={batch:<3} "
            f"{msgs_per_sec:>14,.0f} msg/s "
            f"({windows[str(batch)]['speedup_vs_unbatched']:.2f}x)"
        )
    sweep["windows"] = windows
    return sweep


def compare_against_baseline(
    report: Dict[str, object],
    baseline_path: str,
    gate_benchmarks: List[str],
    max_slowdown: float,
) -> List[str]:
    """Regression gate: fresh numbers vs a committed baseline report.

    Returns a list of human-readable failures (empty when the gate passes).
    Benchmarks/sizes absent from either report are skipped, so adding a new
    benchmark never breaks the gate retroactively.
    """
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    failures: List[str] = []
    fresh_benchmarks = report.get("benchmarks", {})
    base_benchmarks = baseline.get("benchmarks", {})
    for name in gate_benchmarks:
        fresh_sizes = fresh_benchmarks.get(name, {})
        base_sizes = base_benchmarks.get(name, {})
        for size, base_entry in base_sizes.items():
            fresh_entry = fresh_sizes.get(size)
            if fresh_entry is None:
                continue
            base_ops = float(base_entry["ops_per_sec"])
            fresh_ops = float(fresh_entry["ops_per_sec"])
            if base_ops > 0 and fresh_ops * max_slowdown < base_ops:
                failures.append(
                    f"{name} |H|={size}: {fresh_ops:,.0f} op/s is more than "
                    f"{max_slowdown:.1f}x slower than baseline {base_ops:,.0f} op/s"
                )
    return failures


def run_tier1() -> Dict[str, object]:
    """Run the tier-1 pytest suite; returns outcome metadata."""
    cmd = [sys.executable, "-m", "pytest", "tests", "-q"]
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=REPO_ROOT, env=env, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return {
        "command": " ".join(cmd),
        "returncode": proc.returncode,
        "seconds": round(elapsed, 2),
        "summary": tail,
    }


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sizes",
        default=",".join(str(s) for s in DEFAULT_SIZES),
        help="comma-separated history sizes (default: %(default)s)",
    )
    parser.add_argument(
        "--repeat", type=int, default=3, help="measurement repeats, best kept"
    )
    parser.add_argument(
        "--output",
        default=str(REPO_ROOT / "BENCH_micro.json"),
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--with-tests",
        action="store_true",
        help="run the tier-1 pytest suite first and record its outcome",
    )
    parser.add_argument(
        "--compare",
        metavar="BASELINE",
        help="regression gate: fail if gated benchmarks are more than "
        "--max-slowdown slower than this baseline report",
    )
    parser.add_argument(
        "--gate",
        default="diff_for,delivery_round,delivery_round_hybrid,"
        "delivery_round_batched,delivery_round_obs,"
        "delivery_round_pivots,wal_append",
        help="comma-separated benchmarks the --compare gate checks "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--batch-sizes",
        default="1,2,4,8,16,32",
        help="batch windows for the throughput-vs-batch-size sweep "
        "(empty to skip; default: %(default)s)",
    )
    parser.add_argument(
        "--min-batch-speedup",
        type=float,
        default=2.0,
        help="with --compare: fail unless delivery_round_batched is at least "
        "this many times the delivery_round message throughput "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--max-obs-overhead",
        type=float,
        default=1.05,
        help="with --compare: fail unless delivery_round_obs stays within "
        "this slowdown factor of delivery_round (default: %(default)s)",
    )
    parser.add_argument(
        "--max-slowdown",
        type=float,
        default=2.0,
        help="maximum tolerated slowdown factor for gated benchmarks "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--flat",
        default="merge_delta,diff_for_cold,delivery_round_pivots",
        help="with --compare: comma-separated benchmarks whose op/s at the "
        "largest history size must stay within --max-flat-ratio of the "
        "smallest size — i.e. the operation is flat in |H| "
        "(empty to skip; default: %(default)s)",
    )
    parser.add_argument(
        "--max-flat-ratio",
        type=float,
        default=3.0,
        help="maximum tolerated min-size/max-size op/s ratio for --flat "
        "benchmarks (default: %(default)s)",
    )
    args = parser.parse_args(argv)
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        parser.error(f"--sizes must be comma-separated integers, got {args.sizes!r}")
    if not sizes:
        parser.error("--sizes must name at least one history size")

    report: Dict[str, object] = {
        "schema": 2,
        "unit": "ops_per_sec",
        "sizes": sizes,
        "provenance": provenance(),
        "benchmarks": {},
    }

    if args.with_tests:
        tier1 = run_tier1()
        report["tier1"] = tier1
        print(f"tier-1: {tier1['summary']} (rc={tier1['returncode']})")
        if tier1["returncode"] != 0:
            json.dump(report, open(args.output, "w"), indent=2)
            return int(tier1["returncode"])

    results: Dict[str, Dict[str, Dict[str, float]]] = {}
    for name, factory in BENCHMARKS.items():
        results[name] = {}
        scale = BENCH_SCALE.get(name, 1)
        for size in sizes:
            measurement = _measure(factory(size), repeat=args.repeat)
            if scale != 1:
                # Normalize to application messages/sec (one measured op
                # processes a whole batch).
                measurement["ops_per_sec"] *= scale
                measurement["seconds_per_op"] /= scale
                measurement["messages_per_op"] = scale
            results[name][str(size)] = measurement
            unit = "msg/s" if scale != 1 else "op/s"
            print(
                f"{name:>22} |H|={size:<6} "
                f"{measurement['ops_per_sec']:>14,.0f} {unit}"
            )
    report["benchmarks"] = results

    # Instrumentation-tax measurement: delivery_round vs delivery_round_obs,
    # measured *paired* (interleaved repeats) so machine drift between the
    # two standalone table entries above cannot masquerade as overhead.
    obs_overhead: Dict[str, Dict[str, float]] = {}
    for size in sizes:
        paired = _measure_paired(
            bench_delivery_round(size), bench_delivery_round_obs(size)
        )
        obs_overhead[str(size)] = paired
        print(
            f"     obs_overhead(paired) |H|={size:<6} "
            f"{paired['overhead']:>13.3f}x"
        )
    report["obs_overhead"] = obs_overhead

    batch_sizes = [int(b) for b in args.batch_sizes.split(",") if b.strip()]
    if batch_sizes:
        sweep_size = 1000 if 1000 in sizes else sizes[-1]
        known: Dict[int, float] = {}
        plain = results["delivery_round"].get(str(sweep_size))
        if plain is not None:
            known[1] = float(plain["ops_per_sec"])
        batched = results["delivery_round_batched"].get(str(sweep_size))
        if batched is not None:
            # Already scaled to msgs/sec by BENCH_SCALE above.
            known[BATCH_WINDOW] = float(batched["ops_per_sec"])
        report["batch_sweep"] = run_batch_sweep(
            batch_sizes, history_size=sweep_size, repeat=args.repeat, known=known
        )

    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.output}")

    if args.compare:
        gate = [name.strip() for name in args.gate.split(",") if name.strip()]
        failures = compare_against_baseline(
            report, args.compare, gate, args.max_slowdown
        )
        # The batching claim is part of the gate: batched delivery must keep
        # its >=2x message-throughput edge over the unbatched round.
        if args.min_batch_speedup > 0:
            plain = results.get("delivery_round", {})
            batched = results.get("delivery_round_batched", {})
            for size in plain:
                if size not in batched:
                    continue
                plain_ops = float(plain[size]["ops_per_sec"])
                batched_ops = float(batched[size]["ops_per_sec"])
                if plain_ops > 0 and batched_ops < args.min_batch_speedup * plain_ops:
                    failures.append(
                        f"delivery_round_batched |H|={size}: "
                        f"{batched_ops:,.0f} msg/s is below "
                        f"{args.min_batch_speedup:.1f}x delivery_round "
                        f"({plain_ops:,.0f} msg/s)"
                    )
        # And the observability claim: the metrics/tracing layer must stay
        # within --max-obs-overhead of the uninstrumented delivery round
        # (the <=5% instrumentation budget).  Checked against the *paired*
        # measurement, not the standalone table rows, so machine drift
        # between rows cannot masquerade as overhead.  The hooks are O(1)
        # per delivery — a real regression shows up at every history size —
        # so the gate takes the minimum over sizes, which filters the
        # additive phase noise a busy runner injects into individual cells.
        if args.max_obs_overhead > 0 and obs_overhead:
            best_size, best = min(
                obs_overhead.items(), key=lambda kv: kv[1]["overhead"]
            )
            if best["overhead"] > args.max_obs_overhead:
                failures.append(
                    f"obs_overhead: instrumented delivery round is "
                    f"{best['overhead']:.3f}x the plain round even at its "
                    f"best size (|H|={best_size}; limit "
                    f"{args.max_obs_overhead:.2f}x; paired "
                    f"{best['variant_ops_per_sec']:,.0f} vs "
                    f"{best['base_ops_per_sec']:,.0f} op/s)"
                )
        # The cold-path claim: operations the snapshot/memo layer made
        # O(affected) must stay flat in |H| — the op/s at the largest
        # history size within --max-flat-ratio of the smallest.  This is a
        # self-check on the fresh numbers (no baseline cell involved), so a
        # baseline regenerated on a slower machine can never mask a cliff.
        if args.flat and args.max_flat_ratio > 0:
            flat_names = [n.strip() for n in args.flat.split(",") if n.strip()]
            for name in flat_names:
                table = results.get(name, {})
                sized = sorted(
                    (int(s), float(entry["ops_per_sec"]))
                    for s, entry in table.items()
                )
                if len(sized) < 2:
                    continue
                small_size, small_ops = sized[0]
                big_size, big_ops = sized[-1]
                if big_ops > 0 and small_ops > args.max_flat_ratio * big_ops:
                    failures.append(
                        f"{name}: not flat in |H| — {big_ops:,.0f} op/s at "
                        f"|H|={big_size} is more than "
                        f"{args.max_flat_ratio:.1f}x below {small_ops:,.0f} "
                        f"op/s at |H|={small_size}"
                    )
        if failures:
            print(f"REGRESSION GATE FAILED vs {args.compare}:")
            for failure in failures:
                print(f"  {failure}")
            return 1
        print(f"regression gate ok vs {args.compare} (gate: {', '.join(gate)})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
