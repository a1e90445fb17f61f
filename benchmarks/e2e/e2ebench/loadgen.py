"""Seeded inputs and the closed/open-loop load generator.

Inputs are a pure function of the seed: request ``i`` of a stream always has
the same id, destinations and payload text, and an arrival schedule is the
same list of due times.  The program under test receives nothing else.

The generator runs in one asyncio thread.  Logical clients are credits, not
connections: the closed loop keeps ``clients x credit`` requests outstanding
and re-issues on every completion; the open loop issues on a Poisson
schedule whatever the system does, and times every request from the moment
it was *due*, so a stall is charged to the requests that queued behind it.
"""

from __future__ import annotations

import asyncio
import random
import string
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

_ALPHABET = string.ascii_letters + string.digits
_TEXT_SLACK = 4096


class RequestStream:
    """Deterministic request inputs: ``(msg_id, destinations, payload)``."""

    def __init__(
        self, seed: int, global_fraction: float, payload_chars: int, groups: int = 2
    ) -> None:
        self._rng = random.Random(f"requests:{seed}")
        self._global_fraction = global_fraction
        self._groups = groups
        self._chars = payload_chars
        # Payloads are slices of one seeded text: distinct, cheap, and real
        # characters that reach the codec, the socket and the WAL.
        text_rng = random.Random(f"payload:{seed}")
        self._text = "".join(text_rng.choices(_ALPHABET, k=payload_chars + _TEXT_SLACK))
        self.count = 0

    def next(self) -> Tuple[str, Tuple[int, ...], str]:
        rng = self._rng
        index = self.count
        self.count += 1
        if rng.random() < self._global_fraction:
            dst: Tuple[int, ...] = tuple(range(self._groups))
        else:
            dst = (rng.randrange(self._groups),)
        offset = rng.randrange(_TEXT_SLACK)
        return f"m{index}", dst, self._text[offset:offset + self._chars]


def poisson_schedule(seed: int, rate_per_s: float, seconds: float) -> List[float]:
    """Due times (seconds from window start) of a Poisson arrival process."""
    rng = random.Random(f"arrivals:{seed}")
    due: List[float] = []
    now = rng.expovariate(rate_per_s)
    while now < seconds:
        due.append(now)
        now += rng.expovariate(rate_per_s)
    return due


@dataclass
class Phase:
    """Requests issued in one window and what became of them."""

    #: Start (issue or due time) and completion time of every completed request,
    #: and how long it then waited in the ingress batching window before it
    #: went on the wire (wall-clock timer time, not work).
    starts: List[float] = field(default_factory=list)
    ends: List[float] = field(default_factory=list)
    window_waits: List[float] = field(default_factory=list)
    #: Open loop only: how late after its due time each request was issued.
    late_s: List[float] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return len(self.ends)

    def latencies_ms(self) -> List[float]:
        return [(end - start) * 1000.0 for start, end in zip(self.starts, self.ends)]


class Load:
    """Drives one :class:`~e2ebench.adapter.Ingress` with generated requests."""

    def __init__(self, ingress: Any, stream: RequestStream, flush_every_s: float) -> None:
        self._ingress = ingress
        ingress.on_complete = self.on_complete
        ingress.on_dispatch = self.on_dispatch
        self._stream = stream
        self._flush_every_s = flush_every_s
        self._loop = asyncio.get_running_loop()
        #: msg id -> [start, phase (None for a GC flush), time put on the wire].
        self._pending: Dict[str, List[Any]] = {}
        self._closed: Optional[Phase] = None
        self._flusher: Optional[asyncio.Task] = None
        #: Every multicast made, for the oracle: (msg_id, destinations, is_flush).
        self.issued: List[Tuple[str, Sequence[int], bool]] = []

    # ------------------------------------------------------------- lifecycle
    def start_flusher(self) -> None:
        self._flusher = self._loop.create_task(self._flush_loop())

    async def stop_flusher(self) -> None:
        if self._flusher is not None:
            self._flusher.cancel()
            try:
                await self._flusher
            except asyncio.CancelledError:
                pass
            self._flusher = None

    async def _flush_loop(self) -> None:
        while True:
            await asyncio.sleep(self._flush_every_s)
            msg_id, groups = self._ingress.submit_flush()
            self._pending[msg_id] = [self._loop.time(), None, None]
            self.issued.append((msg_id, groups, True))
            self._ingress.trim()

    # -------------------------------------------------------------- issuing
    def _issue(self, phase: Phase, start: float) -> None:
        msg_id, dst, payload = self._stream.next()
        self._pending[msg_id] = [start, phase, start]
        self.issued.append((msg_id, dst, False))
        self._ingress.submit(msg_id, dst, payload)

    def on_dispatch(self, msg_ids: Sequence[str]) -> None:
        """The batch window of these requests closed: they go on the wire."""
        now = self._loop.time()
        for msg_id in msg_ids:
            entry = self._pending.get(msg_id)
            if entry is not None:
                entry[2] = now

    def on_complete(self, msg_id: str, is_flush: bool) -> None:
        entry = self._pending.pop(msg_id, None)
        if entry is None or entry[1] is None:
            return
        now = self._loop.time()
        start, phase, dispatched = entry
        phase.starts.append(start)
        phase.ends.append(now)
        phase.window_waits.append(max(0.0, dispatched - start))
        if phase is self._closed:
            self._issue(phase, now)

    # ---------------------------------------------------------- closed loop
    def start_closed(self, outstanding: int) -> Phase:
        """Issue ``outstanding`` requests now; each completion issues the next."""
        phase = Phase()
        self._closed = phase
        now = self._loop.time()
        for _ in range(outstanding):
            self._issue(phase, now)
        return phase

    def stop_closed(self) -> None:
        self._closed = None

    # ------------------------------------------------------------ open loop
    async def open_loop(self, phase: Phase, due_offsets: Sequence[float], t0: float) -> None:
        """Issue into ``phase`` one request at every due time ``t0 + offset``,
        late or not."""
        loop = self._loop
        index, total = 0, len(due_offsets)
        while index < total:
            now = loop.time()
            due = t0 + due_offsets[index]
            if due > now:
                await asyncio.sleep(due - now)
                continue
            phase.late_s.append(now - due)
            self._issue(phase, due)
            index += 1

    async def drain(self, timeout_s: float) -> int:
        """Wait for every pending request; returns how many never completed."""
        deadline = self._loop.time() + timeout_s
        while self._pending and self._loop.time() < deadline:
            self._ingress.flush_windows()
            await asyncio.sleep(0.02)
        return len(self._pending)
