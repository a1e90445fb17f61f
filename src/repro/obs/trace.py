"""Message-lifecycle tracing: bounded span records keyed by trace id.

A trace is the ordered set of stage events one multicast passes through:

    submit -> batch_flush -> enqueue -> deliver
           -> fanout

Each event is a plain tuple ``(trace_id, stage, at_ms, site, detail)``
appended to a bounded deque — the entire hot-path cost is one tuple
allocation and one deque append behind an ``if tracer is not None``
guard.  ``at_ms`` comes from the transport clock, so simulator traces
are deterministic virtual times and asyncio traces are wall-clock
milliseconds.

The trace id rides on :class:`~repro.core.message.Message` (falling back
to ``msg_id`` when unset) and survives the wire via
:mod:`repro.runtime.codec`, so a timeline reassembled from several
nodes' dumps still groups correctly.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

# Stage names, in canonical lifecycle order (used for display sorting of
# simultaneous events; arrival order is otherwise preserved).
STAGE_SUBMIT = "submit"
STAGE_BATCH_FLUSH = "batch_flush"
STAGE_ENQUEUE = "enqueue"
STAGE_DELIVER = "deliver"
STAGE_FANOUT = "fanout"

STAGES: Tuple[str, ...] = (
    STAGE_SUBMIT,
    STAGE_BATCH_FLUSH,
    STAGE_ENQUEUE,
    STAGE_DELIVER,
    STAGE_FANOUT,
)

_STAGE_ORDER = {stage: i for i, stage in enumerate(STAGES)}

TraceEvent = Tuple[str, str, float, str, str]


class Tracer:
    """Bounded recorder of lifecycle events.

    ``max_events`` caps memory on unbounded runs (oldest events fall off
    first); the fuzz harness and CLI only ever need the tail of a run to
    explain a failure.
    """

    __slots__ = ("events", "max_events")

    def __init__(self, max_events: int = 100_000) -> None:
        self.events: Deque[TraceEvent] = deque(maxlen=max_events)
        self.max_events = max_events

    def record(
        self,
        trace_id: str,
        stage: str,
        at_ms: float,
        site: str = "",
        detail: str = "",
    ) -> None:
        """Append one event (the hot-path call)."""
        self.events.append((trace_id, stage, at_ms, site, detail))

    def __len__(self) -> int:
        return len(self.events)

    # --------------------------------------------------------------- views
    def timelines(self) -> Dict[str, List[TraceEvent]]:
        """Events grouped per trace id, each group in stable time order."""
        grouped: Dict[str, List[TraceEvent]] = {}
        for event in self.events:
            grouped.setdefault(event[0], []).append(event)
        for events in grouped.values():
            events.sort(key=lambda e: (e[2], _STAGE_ORDER.get(e[1], 99)))
        return grouped

    def timeline(self, trace_id: str) -> List[TraceEvent]:
        """All events of one trace, in stable time order."""
        return self.timelines().get(trace_id, [])

    # ----------------------------------------------------------- dump/load
    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (``{"events": [[...], ...]}``)."""
        return {
            "max_events": self.max_events,
            "events": [list(event) for event in self.events],
        }

    def dump_json(self, path: str) -> None:
        """Write :meth:`to_dict` to ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Tracer":
        """Inverse of :meth:`to_dict`."""
        raw_max = data.get("max_events", 100_000)
        tracer = cls(max_events=int(raw_max))  # type: ignore[arg-type]
        for raw in data.get("events", []):  # type: ignore[union-attr]
            trace_id, stage, at_ms, site, detail = raw
            tracer.events.append(
                (str(trace_id), str(stage), float(at_ms), str(site), str(detail))
            )
        return tracer

    @classmethod
    def load_json(cls, path: str) -> "Tracer":
        """Read a dump written by :meth:`dump_json`."""
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def render_timeline(
    trace_id: str, events: List[TraceEvent], width: int = 72
) -> str:
    """Render one trace as an indented text timeline.

    Times are shown absolute and as a delta from the trace's first event;
    per-site delivery is visible through the ``site`` column.
    """
    if not events:
        return f"trace {trace_id}: no events"
    t0 = events[0][2]
    lines = [f"trace {trace_id}  ({len(events)} events, t0={t0:.3f} ms)"]
    for _tid, stage, at_ms, site, detail in events:
        offset = at_ms - t0
        where = f" @{site}" if site else ""
        extra = f"  {detail}" if detail else ""
        lines.append(f"  +{offset:10.3f} ms  {stage:<12}{where}{extra}")
    span = events[-1][2] - t0
    lines.append(f"  total span: {span:.3f} ms")
    return "\n".join(lines)


def summarize(tracer: Tracer, limit: int = 20) -> str:
    """Compact per-trace summary table: stages seen and total span."""
    grouped = tracer.timelines()
    if not grouped:
        return "no trace events recorded"
    lines = [f"{len(grouped)} traces, {len(tracer.events)} events"]
    shown = 0
    for trace_id in sorted(
        grouped, key=lambda t: grouped[t][0][2]
    ):
        if shown >= limit:
            lines.append(f"... {len(grouped) - shown} more traces")
            break
        events = grouped[trace_id]
        span = events[-1][2] - events[0][2]
        stages = ",".join(
            dict.fromkeys(e[1] for e in events)
        )
        lines.append(
            f"  {trace_id:<28} span {span:9.3f} ms  [{stages}]"
        )
        shown += 1
    return "\n".join(lines)


def find_trace(
    tracer: Tracer, needle: str
) -> Optional[Tuple[str, List[TraceEvent]]]:
    """Locate a trace by exact id or unique substring match."""
    grouped = tracer.timelines()
    if needle in grouped:
        return needle, grouped[needle]
    matches = [tid for tid in grouped if needle in tid]
    if len(matches) == 1:
        return matches[0], grouped[matches[0]]
    return None
