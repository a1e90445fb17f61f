"""Runtime observability: metrics registry, lifecycle tracing, export surfaces.

Zero-dependency substrate the rest of the stack publishes into while it
runs (ISSUE 7).  Main pieces:

- :class:`~repro.obs.registry.MetricsRegistry` — counters, gauges
  (including pull-based callback gauges sampled at scrape time) and
  fixed-bucket log-scale latency histograms with p50/p99/p999, rendered
  as Prometheus text or a JSON snapshot.
- :class:`~repro.obs.trace.Tracer` — bounded per-message span records
  covering submit -> batch flush -> ordering wait -> deliver -> fan-out,
  keyed by the ``trace_id`` that :mod:`repro.runtime.codec` round-trips
  on every payload envelope.
- :class:`~repro.obs.hub.Observability` — the bundle (registry + tracer)
  a protocol / server / harness attaches to its layers.
- ``python -m repro.obs`` — text dashboard over a JSON metrics snapshot
  and per-message timeline rendering over a trace dump.

Instrumentation is designed to be near-free when attached and exactly
free when not: hot paths guard on ``if obs is not None`` and publish
plain integer increments or tuple appends; everything expensive
(queue-depth gauges, history sizes, percentile math) is computed at
scrape time from state the layers already maintain.
"""

from .hub import Observability
from .registry import Counter, Gauge, Histogram, MetricsRegistry
from .trace import (
    STAGE_BATCH_FLUSH,
    STAGE_DELIVER,
    STAGE_ENQUEUE,
    STAGE_FANOUT,
    STAGE_SUBMIT,
    Tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "Tracer",
    "STAGE_SUBMIT",
    "STAGE_BATCH_FLUSH",
    "STAGE_ENQUEUE",
    "STAGE_DELIVER",
    "STAGE_FANOUT",
]
