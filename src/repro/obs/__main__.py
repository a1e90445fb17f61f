"""``python -m repro.obs`` — render captured runs as text.

Two subcommands over the two artifact kinds the stack can emit:

- ``dashboard SNAPSHOT.json`` — a text dashboard over a metrics
  snapshot (``MetricsRegistry.dump_json``, e.g. the ``metrics-*.json``
  file a failing fuzz seed writes; a replica's ``/metrics`` text is for
  live scrapers, the JSON snapshot is the canonical offline form).
- ``trace DUMP.json [--id TRACE]`` — per-message timelines from a
  trace dump (``Tracer.dump_json``), e.g. the ``trace-*.json`` file a
  failing fuzz seed writes next to its shrunk schedule.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from .trace import Tracer, find_trace, render_timeline, summarize


def _fmt(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3f}" if value != int(value) else str(int(value))
    return str(value)


def render_dashboard(snapshot: Dict[str, object]) -> str:
    """Text dashboard over a ``MetricsRegistry.snapshot()`` JSON dump."""
    lines: List[str] = []
    counters = snapshot.get("counters") or {}
    gauges = snapshot.get("gauges") or {}
    histograms = snapshot.get("histograms") or {}
    if counters:
        lines.append("== counters ==")
        width = max(len(k) for k in counters)
        for name, value in sorted(counters.items()):  # type: ignore[union-attr]
            lines.append(f"  {name:<{width}}  {_fmt(value)}")
    if gauges:
        lines.append("== gauges ==")
        width = max(len(k) for k in gauges)
        for name, value in sorted(gauges.items()):  # type: ignore[union-attr]
            lines.append(f"  {name:<{width}}  {_fmt(value)}")
    if histograms:
        lines.append("== histograms (ms) ==")
        width = max(len(k) for k in histograms)
        header = (
            f"  {'series':<{width}}  {'count':>8} {'p50':>10} {'p99':>10}"
            f" {'p999':>10} {'max':>10}"
        )
        lines.append(header)
        for name, summary in sorted(histograms.items()):  # type: ignore[union-attr]
            lines.append(
                f"  {name:<{width}}  {_fmt(summary.get('count')):>8}"
                f" {_fmt(summary.get('p50')):>10}"
                f" {_fmt(summary.get('p99')):>10}"
                f" {_fmt(summary.get('p999')):>10}"
                f" {_fmt(summary.get('max')):>10}"
            )
    if not lines:
        lines.append("empty snapshot: no series recorded")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Render observability artifacts captured from a run.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dash = sub.add_parser(
        "dashboard", help="text dashboard over a metrics snapshot JSON"
    )
    p_dash.add_argument("snapshot", help="path to a registry snapshot JSON")

    p_trace = sub.add_parser(
        "trace", help="per-message timelines from a trace dump JSON"
    )
    p_trace.add_argument("dump", help="path to a Tracer.dump_json file")
    p_trace.add_argument(
        "--id",
        dest="trace_id",
        default=None,
        help="render one trace (exact id or unique substring); "
        "default: summary of every trace",
    )
    p_trace.add_argument(
        "--limit",
        type=int,
        default=20,
        help="max traces in the summary table (default 20)",
    )

    args = parser.parse_args(argv)

    if args.command == "dashboard":
        with open(args.snapshot, "r", encoding="utf-8") as fh:
            snapshot = json.load(fh)
        print(render_dashboard(snapshot))
        return 0

    tracer = Tracer.load_json(args.dump)
    if args.trace_id is None:
        print(summarize(tracer, limit=args.limit))
        return 0
    found = find_trace(tracer, args.trace_id)
    if found is None:
        print(f"no unique trace matches {args.trace_id!r}", file=sys.stderr)
        return 1
    trace_id, events = found
    print(render_timeline(trace_id, events))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
