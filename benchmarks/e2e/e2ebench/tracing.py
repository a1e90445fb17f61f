"""Spans recorded from the benchmark's own files, and the arithmetic on them.

The traced run wraps each layer's public callables (named by
``adapter.trace_targets``) with :meth:`Recorder.wrap`.  Every call becomes a
span ``(id, parent, name, start, end, request)``; spans stay in memory and
are written out when the run ends.  A layer's *self time* is its span's
duration minus the time its child spans cover; wall time outside every span
is the ``residual`` (event loop, stream readers, sockets).  Self times plus
the residual add up to the traced wall time by construction.

Only traced runs import this module.
"""

from __future__ import annotations

import functools
import gc
import json
import sys
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: (span id, parent id or 0, name, start, end, request key)
Span = Tuple[int, int, str, float, float, Any]
GC_SPAN = "runtime.gc"


class Recorder:
    """Span stack for one single-threaded run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.enabled = False
        self.dropped: List[str] = []
        self._stack: List[Tuple[int, Any]] = []
        self._next_id = 0
        self._patched: List[Tuple[Any, str, Any]] = []
        self._gc_open: Optional[Tuple[int, int, Any, float]] = None
        #: Optional hook: called with (name, args) at every *root* span to
        #: derive the request key its whole subtree shares.
        self.request_key: Optional[Callable[[str, tuple], Any]] = None

    # ------------------------------------------------------------- wrapping
    def wrap(self, function: Callable[..., Any], name: str) -> Callable[..., Any]:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return function(*args, **kwargs)
            self._next_id += 1
            span_id = self._next_id
            if stack:
                parent, request = stack[-1]
            else:
                parent = 0
                request = self.request_key(name, args) if self.request_key else None
                if request is None:
                    request = span_id
            stack.append((span_id, request))
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end, request))

        return traced

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        """A garbage collection is a span of its own (``runtime.gc``).

        The collector runs inside whichever call happened to allocate the
        object that tipped a threshold; charged to that call, a few long
        collections would move a layer's number from run to run.
        """
        if not self.enabled and not self._gc_open:
            return
        if phase == "start":
            self._next_id += 1
            parent, request = self._stack[-1] if self._stack else (0, self._next_id)
            self._gc_open = (self._next_id, parent, request, time.perf_counter())
        elif self._gc_open:
            span_id, parent, request, start = self._gc_open
            self._gc_open = None
            self.spans.append((span_id, parent, GC_SPAN, start, time.perf_counter(), request))

    def patch(self, targets: Iterable[Tuple[Any, str, str]]) -> None:
        """Rebind every ``(owner, attribute, span name)``; missing ones are dropped."""
        gc.callbacks.append(self._on_gc)
        wrapped: Dict[int, Callable[..., Any]] = {}
        for owner, attribute, name in targets:
            if owner is None:
                self.dropped.append(attribute)
                print(f"trace: target {attribute} not found; its time stays "
                      f"in the parent span", file=sys.stderr)
                continue
            original = getattr(owner, attribute)
            # One wrapper per function, however many names hold it, so a
            # call through any of them is one span.
            replacement = wrapped.setdefault(id(original), self.wrap(original, name))
            self._patched.append((owner, attribute, original))
            setattr(owner, attribute, replacement)

    def unpatch(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # ---------------------------------------------------------------- output
    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, request in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start": start, "end": end, "req": request,
                }) + "\n")


def self_times(spans: Sequence[Span]) -> Tuple[Dict[str, float], Dict[str, int], float]:
    """Per-name self time and call count, and the total time inside root spans."""
    child_time: Dict[int, float] = {}
    for _, parent, _, start, end, _ in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    own: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    rooted = 0.0
    for span_id, parent, name, start, end, _ in spans:
        duration = end - start
        own[name] = own.get(name, 0.0) + duration - child_time.get(span_id, 0.0)
        calls[name] = calls.get(name, 0) + 1
        if not parent:
            rooted += duration
    return own, calls, rooted


def layer_times(own: Dict[str, float]) -> Dict[str, float]:
    """Fold span names (``layer.callable``) into their layers."""
    layers: Dict[str, float] = {}
    for name, seconds in own.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + seconds
    return layers


def breakdown(spans: Sequence[Span], wall_s: float) -> Dict[str, Any]:
    """Self time per span name and per layer, the residual, and their sum."""
    own, calls, rooted = self_times(spans)
    residual = wall_s - rooted
    return {
        "self_s": own,
        "calls": calls,
        "layers_s": layer_times(own),
        "residual_s": residual,
        "attributed_share": rooted / wall_s if wall_s else 0.0,
        "wall_s": wall_s,
    }
