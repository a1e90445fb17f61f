"""End-to-end benchmark of the whole stack: one command, three workloads
(and a fourth, ``rejoin``, that ``BENCHMARK.json`` does not declare).

Two ways to run it, one code path underneath:

* ``python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1``
  runs one workload once and prints, as the last line of standard output, one
  JSON object ``{correct, attempted, failed, metrics}`` - the end-to-end
  metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
  This is the form ``BENCHMARK.json`` declares.
* ``python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N] [--out DIR]
  [--quick] [--repeat N]`` runs every selected workload untraced and traced,
  prints every metric by name with its unit and sample count, and writes
  ``result.json`` (and ``trace-<workload>.jsonl``) under ``--out``.
  ``--compare A B`` reads two such result files and prints one verdict per
  (end-to-end metric, workload) pair against the bounds in ``BENCHMARK.json``.

Exit status: 0 when every oracle held, 1 on any violation (or, for
``--compare``, any ``regressed``/``unresolved`` pair), 2 when the program
under test cannot be found.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: A run longer than this is a failure (the contract allows 180 s).
HARD_TIMEOUT_S = 170
QUICK_SECONDS = 6.0
HASH_SEED = "0"
#: In the harness and under the full command, not in ``BENCHMARK.json``:
#: see README.md, "Deviations".
UNDECLARED = ("rejoin",)


def _parse(argv: Optional[Sequence[str]], names: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names, metavar="NAME",
                        help=f"workload to run: {', '.join(names)} (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of every generated input (default 1)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="single-run mode: 0 = end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--out", metavar="DIR", help="write result.json and traces here")
    parser.add_argument("--quick", action="store_true",
                        help="~1 s windows for smoke use; results are marked and never comparable")
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="run the selected set N times; print median and quartiles")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two result files against the bounds of BENCHMARK.json")
    return parser.parse_args(argv)


def _benchmark_json() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def _on_timeout(signum: int, frame: Any) -> None:
    raise TimeoutError(f"workload exceeded the hard timeout of {HARD_TIMEOUT_S} s")


def _summarise(runs: List[Dict[str, Any]]) -> None:
    from e2ebench import stats

    print(f"\n== median [q1, q3] over {len(runs)} runs ==")
    names = sorted({(w, m) for run in runs for w, ms in run["workloads"].items() for m in ms["metrics"]})
    for workload, metric in names:
        values = [run["workloads"][workload]["metrics"][metric] for run in runs]
        q1, q2, q3 = stats.quartiles(values)
        print(f"  {workload:<18} {metric:<42} {q2:>14.4f} [{q1:.4f}, {q3:.4f}]")


def _compare(path_a: str, path_b: str) -> int:
    from e2ebench import stats

    def runs_of(path: str) -> List[Dict[str, Any]]:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)["runs"]

    runs_a, runs_b = runs_of(path_a), runs_of(path_b)
    bad = 0
    print(f"{'workload':<18} {'metric':<20} {'A median':>12} {'B median':>12} "
          f"{'change':>8} {'spread':>8} {'bound':>6}  verdict")
    for metric in _benchmark_json()["end_to_end"]:
        name, bound, better = metric["name"], metric["bound"], metric["better"]
        for workload in runs_a[0]["workloads"]:
            base = [r["workloads"][workload]["metrics"][name] for r in runs_a]
            new = [r["workloads"][workload]["metrics"][name] for r in runs_b
                   if workload in r["workloads"]]
            if not new:
                continue
            row = stats.verdict(base, new, better, bound)
            bad += row["verdict"] in ("regressed", "unresolved")
            print(f"{workload:<18} {name:<20} {row['base_median']:>12.4f} "
                  f"{row['new_median']:>12.4f} {row['change']:>+8.1%} {row['spread']:>8.1%} "
                  f"{bound:>6.0%}  {row['verdict']}")
    return 1 if bad else 0


def _single(args: argparse.Namespace, name: str, seconds: float) -> int:
    """One workload, once, in this process: the form BENCHMARK.json declares."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from e2ebench import host, workloads
    except ImportError as exc:
        print(f"cannot import the program under test from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # WALs and specs live inside the checkout (the contract forbids writing
    # anywhere else) in a directory of this run's own, removed on the way out.
    scratch = ROOT / ".bench_work"
    work_dir = str(scratch / f"run-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    units = workloads.metric_units(name, bool(args.trace))
    signal.signal(signal.SIGALRM, _on_timeout)
    signal.alarm(HARD_TIMEOUT_S)
    try:
        print(f"{name} seed={args.seed} seconds={seconds:g} trace={args.trace} "
              f"(loopback TCP, no injected delay; WAL on {host.filesystem_type(work_dir)})",
              flush=True)
        try:
            outcome = workloads.run_workload(name, args.seed, seconds, bool(args.trace),
                                             work_dir, args.out, args.quick)
        except TimeoutError as exc:
            outcome = workloads.Outcome(workload=name, attempted=1, failed=1,
                                        violations=[f"timeout: {exc}"])
            outcome.metrics = dict.fromkeys(units, 0.0)
    finally:
        signal.alarm(0)
        shutil.rmtree(work_dir, ignore_errors=True)
        if scratch.is_dir() and not any(scratch.iterdir()):
            scratch.rmdir()
    for metric, (unit, _) in units.items():
        count = outcome.samples.get(metric)
        suffix = f"  (n={count})" if count is not None else ""
        print(f"  {metric:<42} {outcome.metrics[metric]:>14.4f} {unit}{suffix}")
    for note in outcome.notes:
        print(f"  note: {note}")
    for violation in outcome.violations[:20]:
        print(f"  VIOLATION: {violation}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {m: {"value": outcome.metrics[m], "unit": unit}
                    for m, (unit, _) in units.items()},
    }))
    return 0 if outcome.correct else 1


def _full(args: argparse.Namespace, names: Sequence[str], seconds: float) -> int:
    """Every selected workload untraced and traced, each run a process of its
    own (the single-run form above), so no run inherits another's heap."""
    from e2ebench import host

    runs: List[Dict[str, Any]] = []
    status = 0
    for repeat in range(args.repeat):
        run: Dict[str, Any] = {
            "provenance": host.provenance(str(ROOT), str(ROOT), args.seed, args.quick),
            "seconds": seconds,
            "workloads": {},
        }
        for name in names:
            merged: Dict[str, Any] = {"metrics": {}, "attempted": 0, "failed": 0, "correct": True}
            for trace in (0, 1):
                print(f"\n== {name}, run {repeat + 1} of {args.repeat}, "
                      f"{'traced' if trace else 'untraced'} ==", flush=True)
                command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                           "--seed", str(args.seed), "--seconds", str(seconds),
                           "--trace", str(trace)]
                command += ["--out", args.out] if args.out else []
                command += ["--quick"] if args.quick else []
                child = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                       timeout=HARD_TIMEOUT_S + 60)
                *report, last = child.stdout.splitlines() or [""]
                print("\n".join(report), flush=True)
                try:
                    result = json.loads(last)
                except json.JSONDecodeError:
                    print(f"  VIOLATION: {name} --trace {trace} exited {child.returncode} "
                          f"without a result", flush=True)
                    merged["correct"] = False
                    continue
                merged["metrics"].update({m: v["value"] for m, v in result["metrics"].items()})
                merged["attempted"] += result["attempted"]
                merged["failed"] += result["failed"]
                merged["correct"] &= result["correct"]
            merged["failed_frac"] = merged["failed"] / max(1, merged["attempted"])
            print(f"  failed_frac {merged['failed_frac']:.6f} "
                  f"({merged['failed']} of {merged['attempted']})")
            status |= not merged["correct"]
            run["workloads"][name] = merged
        runs.append(run)
    if args.repeat > 1:
        _summarise(runs)
    if args.out:
        with open(os.path.join(args.out, "result.json"), "w", encoding="utf-8") as handle:
            json.dump({"schema": "e2e/v1", "quick": args.quick, "runs": runs}, handle, indent=1)
    print(json.dumps({"status": "violations" if status else "ok", "claim": None}))
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    declared = _benchmark_json()
    names = [workload["name"] for workload in declared["workloads"]] + list(UNDECLARED)
    args = _parse(argv, names)
    sys.path.insert(0, str(HERE))
    if args.compare:
        return _compare(*args.compare)
    if argv is None and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String-hash randomisation alone moves sim_gtpcc's throughput by
        # +-5 % from one interpreter to the next (set iteration order changes
        # the work, not the result).  Pin it for this process and, through
        # the environment, for every replica it spawns.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    seconds = args.seconds
    if seconds is None:
        seconds = QUICK_SECONDS if args.quick else float(declared["run_seconds"])
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            print("--trace takes exactly one --workload", file=sys.stderr)
            return 2
        return _single(args, args.workload[0], seconds)
    return _full(args, args.workload or names, seconds)


if __name__ == "__main__":
    sys.exit(main())
