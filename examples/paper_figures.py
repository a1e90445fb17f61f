#!/usr/bin/env python3
"""Regenerate every table and figure of the paper's evaluation section.

Each figure/table is produced by the corresponding function in
``repro.experiments.figures``; this script is a thin CLI over
``run_all``, which runs each distinct configuration once.  The default scale
is small enough to run everything in a few minutes; raise ``--duration-ms``
and ``--clients`` for closer (slower) comparisons.  Its output at the default
scale is EXPERIMENTS.md.

Run with:
  python examples/paper_figures.py               # everything
  python examples/paper_figures.py --figure 5    # only Figure 5 / Table 2
  python examples/paper_figures.py > EXPERIMENTS.md
"""

import argparse
import sys

from repro.experiments.figures import ALL_FIGURES, DEFAULT_SCALE, Scale, run_all

#: The paper section each figure reproduces.
SECTIONS = {
    "1": "Figure 1 — §1, with overhead as defined in §5.8",
    "5": "Figure 5 / Table 2 — §5.4, the overlays",
    "6": "Figure 6 — §5.5, throughput",
    "7": "Figure 7 / Table 3 — §5.6, latency and locality",
    "8": "Figure 8 — §5.7, information exchanged",
    "9": "Figure 9 / Table 4 — §5.8, communication overhead",
}


def header(scale: Scale, targets) -> str:
    """What wrote the output, at which scale and seed, and what it reproduces."""
    command = " ".join(["python", "examples/paper_figures.py", *sys.argv[1:]])
    counts = ", ".join(str(c) for c in scale.client_counts)
    lines = [
        "# EXPERIMENTS — the paper's evaluation (§5), regenerated",
        "",
        f"Written by `PYTHONPATH=src {command}`.",
        f"Scale: {scale.duration_ms:,.0f} virtual ms of load per experiment and "
        f"{scale.num_clients} closed-loop clients (Figure 6 sweeps {counts}).",
        f"Seed: {scale.seed}.",
        "",
        "Paper sections:",
        *(f"- {SECTIONS[key]}" for key in targets),
        "",
        "```text",
    ]
    return "\n".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--figure", choices=sorted(ALL_FIGURES), default=None,
                        help="regenerate a single figure (default: all)")
    parser.add_argument("--duration-ms", type=float, default=DEFAULT_SCALE.duration_ms,
                        help="virtual milliseconds of load per experiment")
    parser.add_argument("--clients", type=int, default=DEFAULT_SCALE.num_clients,
                        help="closed-loop clients per experiment")
    parser.add_argument("--seed", type=int, default=DEFAULT_SCALE.seed)
    args = parser.parse_args()

    scale = Scale(duration_ms=args.duration_ms, num_clients=args.clients, seed=args.seed)
    targets = [args.figure] if args.figure else sorted(ALL_FIGURES)
    print(header(scale, targets))
    for result in run_all(scale, targets).values():
        print(f"\n{'=' * 78}")
        print(f"{result.name}\n{'-' * 78}")
        print(result.text)
    print("```")


if __name__ == "__main__":
    main()
