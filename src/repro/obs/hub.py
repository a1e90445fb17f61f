"""The ``Observability`` bundle a process attaches to its layers.

One hub = one metrics registry + one optional tracer.  Layers receive the
hub at construction (``obs=`` keyword, always optional and defaulting to
``None``) or through ``attach_obs(obs)``, and either grab instruments from
``hub.registry`` or register pull-based gauges over their own state; the
tracer, when present, records per-message lifecycle spans.
"""

from __future__ import annotations

from typing import Optional

from .registry import MetricsRegistry
from .trace import Tracer


class Observability:
    """Registry + tracer for one process."""

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        #: ``None`` keeps tracing entirely off: hot paths guard on
        #: ``obs.tracer is not None`` before building an event tuple.
        self.tracer = tracer

    @classmethod
    def with_tracing(cls, max_events: int = 100_000) -> "Observability":
        """A hub with tracing enabled from the start."""
        return cls(tracer=Tracer(max_events=max_events))
