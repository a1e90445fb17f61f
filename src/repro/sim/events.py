"""Discrete-event simulation loop.

The simulator drives every experiment in this repository.  It replaces the
physical CloudLab/AWS deployment used by the paper: instead of real wall-clock
time elapsing on wide-area links, link latencies are added to a virtual clock
and events (message deliveries, timers) are executed in timestamp order.

The loop is deterministic: events scheduled at the same virtual time are
executed in scheduling order (FIFO tie-breaking through a monotonically
increasing sequence number).  Determinism makes every benchmark and test
reproducible from its random seed alone.

A queued event is the plain list ``[time, seq, callback, args]``, so the
heap orders entries with the list comparison :mod:`heapq` runs in C; the
sequence number is unique, so nothing past it is ever compared.  Its time
comes round as ``callback(*args)``.  :meth:`EventLoop.schedule` and
:meth:`EventLoop.schedule_at` queue a callback with no arguments and hand
back an :class:`EventHandle`; :meth:`EventLoop.post_at` queues a callback
with its arguments and hands back nothing, for events nobody cancels (every
network delivery is one), so such an event costs one list and no handle or
closure.  Cancelling an event sets its callback to ``None`` at once: the
entry stays in the heap until its time comes round, but what the callback
closed over is freed at ``cancel()``.

A run ends with :meth:`EventLoop.close`.  A pending event holds its callback,
and the callback usually leads back to whoever holds the event's handle (a
protocol group and its timer), so an unclosed loop leaves every finished
deployment to the cyclic garbage collector.  Closing cancels what is still
queued and lets go of those callbacks; the clock and the counters stay
readable.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, List, Optional

#: A heap entry: ``[time, seq, callback, args]``, callback ``None`` once
#: cancelled.
_Entry = List[Any]


class EventHandle:
    """Handle returned by :meth:`EventLoop.schedule`, used to cancel events."""

    __slots__ = ("_entry",)

    def __init__(self, entry: _Entry) -> None:
        self._entry = entry

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired).

        The queued entry lets go of its callback here, not at its virtual
        time, so whatever the callback closes over is freed now.
        """
        self._entry[2] = None

    @property
    def cancelled(self) -> bool:
        return self._entry[2] is None

    @property
    def time(self) -> float:
        """Virtual time at which the event is (was) scheduled."""
        return self._entry[0]


class EventLoop:
    """A minimal, deterministic discrete-event scheduler.

    Typical usage::

        loop = EventLoop()
        loop.schedule(10.0, lambda: print("ten virtual ms later"))
        loop.run()
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._seq = 0
        self._heap: List[_Entry] = []
        self._events_processed = 0
        self._stopped = False

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current virtual time (milliseconds by convention in this repo)."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (useful for budget assertions)."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._heap)

    # ------------------------------------------------------------ scheduling
    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` virtual time units from now.

        Negative delays are clamped to zero so that causality is never
        violated (an event cannot fire in the past).
        """
        return self.schedule_at(self._now + max(0.0, delay), callback)

    def schedule_at(self, when: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at absolute virtual time ``when``."""
        if when < self._now:
            when = self._now
        entry = [when, self._seq, callback, ()]
        self._seq += 1
        heappush(self._heap, entry)
        return EventHandle(entry)

    def post_at(self, when: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` at absolute virtual time ``when``.

        :meth:`schedule_at` for an event that is never cancelled: it takes
        the same place in the ``(time, seq)`` order and returns no handle.
        """
        if when < self._now:
            when = self._now
        heappush(self._heap, [when, self._seq, callback, args])
        self._seq += 1

    def call_soon(self, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at the current virtual time."""
        return self.schedule(0.0, callback)

    # --------------------------------------------------------------- running
    def stop(self) -> None:
        """Request the loop to stop before processing the next event."""
        self._stopped = True

    def close(self) -> None:
        """End the run: cancel every pending event and drop its callback.

        A handle to a dropped event still answers ``cancel()`` and ``time``.
        """
        for entry in self._heap:
            entry[2] = None
        self._heap.clear()

    def step(self) -> bool:
        """Execute the next non-cancelled event.

        Returns ``True`` if an event ran, ``False`` if the queue was empty.
        """
        heap = self._heap
        while heap:
            when, _, callback, args = heappop(heap)
            if callback is None:
                continue
            self._now = when
            self._events_processed += 1
            callback(*args)
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Run events until the queue empties, ``until`` is reached, or
        ``max_events`` have been processed.

        ``until`` is an absolute virtual time; events scheduled strictly after
        it stay in the queue and the clock is advanced to ``until``.
        """
        self._stopped = False
        processed = 0
        heap = self._heap
        while not self._stopped:
            if max_events is not None and processed >= max_events:
                break
            while heap and heap[0][2] is None:
                heappop(heap)  # cancelled: drop it before reading the time
            if not heap:
                break
            if until is not None and heap[0][0] > until:
                self._now = max(self._now, until)
                break
            self.step()  # the head is live, so it runs
            processed += 1
        if until is not None and self._now < until and not self._stopped:
            self._now = until

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        """Run until no events remain; returns the number of events processed.

        Raises ``RuntimeError`` if the budget is exceeded, which almost always
        indicates a livelock in protocol logic (e.g. two groups ping-ponging).
        """
        processed = 0
        while self.step():
            processed += 1
            if processed > max_events:
                raise RuntimeError(
                    f"event budget of {max_events} exceeded; possible livelock"
                )
        return processed


class PeriodicTimer:
    """Re-arms itself on the loop every ``interval`` until cancelled.

    Used by the flush-based garbage collector
    (:class:`~repro.core.garbage.FlushCoordinator`).  A cancelled timer lets
    go of its callback and its handle, so neither keeps the other alive.
    """

    def __init__(
        self,
        loop: EventLoop,
        interval: float,
        callback: Callable[[], None],
        start_after: Optional[float] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self._loop = loop
        self._interval = interval
        self._callback: Optional[Callable[[], None]] = callback
        self._handle: Optional[EventHandle] = loop.schedule(
            interval if start_after is None else start_after, self._fire
        )

    def _fire(self) -> None:
        if self._callback is None:
            return
        self._callback()
        if self._callback is not None:
            self._handle = self._loop.schedule(self._interval, self._fire)

    def cancel(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
        self._callback = self._handle = None

    @property
    def active(self) -> bool:
        return self._callback is not None
