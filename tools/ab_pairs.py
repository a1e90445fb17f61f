#!/usr/bin/env python3
"""Run the end-to-end benchmark as alternating pairs and say who won.

A performance claim is a set of pairs of runs, one from the parent checkout
and one from the change, on seeds that played no part in making the change.
This runs ``benchmarks/e2e/run.py --workload W --seed S --trace 0`` once
from each checkout per seed, the parent first on odd pairs and the change
first on even ones, and prints every end-to-end metric of ``BENCHMARK.json``
for each pair, then per metric the two medians, how many pairs the change
won and the inter-quartile distance of the parent's runs::

    python tools/ab_pairs.py --parent ../parent --change . \\
        --workload local_batched --seed-base 861 --pairs 10

Each run is the benchmark's own process in its own checkout (no
``PYTHONPATH`` is passed down), started without ``--out``, so nothing is
written under ``benchmarks/e2e``.  Exit status 1 when any run reports
``correct: false`` or prints no result, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"))
from e2ebench import stats  # noqa: E402  (the quartiles run.py reports)

#: Longer than the benchmark's own hard timeout plus its start-up.
RUN_TIMEOUT_S = 240

Result = Dict[str, Any]


def result_of(stdout: str) -> Optional[Result]:
    """The JSON object a single run prints as its last line, else ``None``."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def summarise(
    pairs: Sequence[Tuple[Result, Result]], end_to_end: Sequence[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """One row per declared end-to-end metric over ``(parent, change)`` pairs.

    A pair is won when the change's value is strictly better in the metric's
    direction; ``parent_iqr`` is ``q3 - q1`` of the parent's values.
    """
    rows = []
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        q1, _, q3 = stats.quartiles(parent)
        rows.append({
            "name": name,
            "unit": metric["unit"],
            "better": metric["better"],
            "parent": parent,
            "change": change,
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "wins": sum((c < p) if lower else (c > p) for p, c in zip(parent, change)),
            "parent_iqr": q3 - q1,
        })
    return rows


def _run(checkout: Path, workload: str, seed: int, seconds: Optional[float]) -> Optional[Result]:
    command = [sys.executable, str(checkout / "benchmarks" / "e2e" / "run.py"),
               "--workload", workload, "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    child = subprocess.run(command, cwd=checkout, env=env, stdout=subprocess.PIPE,
                           text=True, timeout=RUN_TIMEOUT_S)
    result = result_of(child.stdout)
    if result is None:
        print(f"  {checkout} seed {seed} exited {child.returncode} without a result:\n"
              + child.stdout[-2000:], flush=True)
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent's checkout")
    parser.add_argument("--change", type=Path, required=True, help="the change's checkout")
    parser.add_argument("--workload", required=True, help="one workload of BENCHMARK.json")
    parser.add_argument("--seed-base", type=int, required=True,
                        help="first seed; pick seeds no earlier measurement used")
    parser.add_argument("--pairs", type=int, default=10, help="number of pairs (default 10)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: the benchmark's own)")
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    with open(change / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        end_to_end = json.load(handle)["end_to_end"]

    pairs: List[Tuple[Result, Result]] = []
    correct = True
    for index in range(args.pairs):
        seed = args.seed_base + index
        order = [("parent", parent), ("change", change)]
        if index % 2:
            order.reverse()
        print(f"pair {index + 1} of {args.pairs}, seed {seed}, "
              f"{order[0][0]} first", flush=True)
        results = {side: _run(path, args.workload, seed, args.seconds) for side, path in order}
        if any(r is None or not r.get("correct") for r in results.values()):
            correct = False
        if any(r is None for r in results.values()):
            continue
        pairs.append((results["parent"], results["change"]))
        for metric in end_to_end:
            name = metric["name"]
            print(f"  {name:<20} {results['parent']['metrics'][name]['value']:>14.4f} "
                  f"{results['change']['metrics'][name]['value']:>14.4f}", flush=True)

    if pairs:
        print(f"\n== {args.workload}: {len(pairs)} pairs, seeds {args.seed_base}-"
              f"{args.seed_base + args.pairs - 1} ==")
        print(f"{'metric':<20} {'unit':<6} {'better':<7} {'parent med':>14} "
              f"{'change med':>14} {'won':>7} {'parent IQR':>12}")
        for row in summarise(pairs, end_to_end):
            print(f"{row['name']:<20} {row['unit']:<6} {row['better']:<7} "
                  f"{row['parent_median']:>14.4f} {row['change_median']:>14.4f} "
                  f"{row['wins']:>3}/{len(pairs):<3} {row['parent_iqr']:>12.4f}")
    if not correct:
        print("a run reported correct: false or no result")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
