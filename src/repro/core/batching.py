"""Client-side adaptive message batching.

Every submission in the base client pays its own envelope: one client
request, one msg/ack round per destination, one codec pass and one
simulator event per hop.  Under heavy traffic that per-message overhead —
not the ordering logic — dominates the delivery path (PR 1 made the history
work O(affected)).  :class:`BatchingClient` amortizes it the standard middleware
way: submissions to the *same destination set* made while earlier ones are
in flight are coalesced in a window and shipped as one
:class:`~repro.core.message.FlexCastBatch` carrying a batch carrier
(:meth:`~repro.core.message.Message.batch_of`).

The protocol orders the carrier exactly like a single message — one history
vertex, one msg/ack per destination — and
the delivery gate fans it out into per-member application deliveries
(:mod:`repro.core.flexcast`), so batching is invisible to applications, to
the checker, and to every ordering guarantee.  See DESIGN.md "batching the
delivery path" for the lifecycle and the batch=1 bit-identity argument.

Windows close on whichever trigger fires first:

* **idle** — nothing dispatched to the destination set is still waiting
  for its responses: a submission to an idle set ships at once, and the
  response that completes a set's last in-flight message ships the window
  that gathered behind it (batching with pipelining: batch only while
  something is in flight);
* **size** — the buffer for a destination set reaches ``max_batch``;
* **time** — ``max_delay_ms`` elapsed since the buffer's first message
  (requires a ``schedule`` callback; without one, only the size and idle
  triggers and explicit :meth:`BatchingClient.flush` calls close windows).

Size and time still bound every window, so the idle trigger never makes a
message wait longer; it only ships earlier whatever would otherwise wait
on a link with nothing to amortize against.  A message whose responses
never all arrive keeps its set busy, and that set's later windows close on
size or time again.

A window holding a single message is shipped as a plain
:class:`~repro.core.message.ClientRequest` — bit-identical to the unbatched
client, which is what makes ``max_batch=1`` a true no-op mode (pinned by
``tests/core/test_batching_equivalence.py``).  Flush (GC) multicasts bypass
the buffers entirely: they are ordering barriers and must never be delayed
or coalesced.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from ..obs import STAGE_BATCH_FLUSH, Observability
from ..obs.registry import SIZE_BUCKETS, Histogram
from ..overlay.base import GroupId
from ..protocols.base import AtomicMulticastProtocol
from .client import MulticastCall, MulticastClient
from .message import ClientRequest, FlexCastBatch, Message

#: ``schedule(delay_ms, callback)`` -> handle with an optional ``cancel()``.
#: The simulator passes ``EventLoop.schedule``; the asyncio runtime wraps
#: ``loop.call_later`` (milliseconds -> seconds).
Scheduler = Callable[[float, Callable[[], None]], Any]


class BatchingClient(MulticastClient):
    """A multicast client that coalesces same-destination submissions.

    Drop-in replacement for :class:`~repro.core.client.MulticastClient`:
    response tracking (``inflight`` / ``on_response`` / ``completed``) is
    per *member* message and unchanged — only the dispatch path differs,
    and :meth:`on_response` also closes the window of a destination set
    whose last in-flight message it completed (the idle trigger).
    Requires a protocol whose groups understand
    :class:`~repro.core.message.FlexCastBatch` (the FlexCast family; the
    envelope subclasses ``ClientRequest``, so groups deduplicate batches
    like any other client request).
    """

    def __init__(
        self,
        client_id: str,
        protocol: AtomicMulticastProtocol,
        send_request: Callable[[GroupId, ClientRequest], None],
        clock: Callable[[], float],
        max_batch: int = 16,
        max_delay_ms: float = 5.0,
        schedule: Optional[Scheduler] = None,
    ) -> None:
        super().__init__(client_id, protocol, send_request, clock)
        #: Size trigger: a destination-set buffer flushes at this many
        #: messages.  ``1`` disables coalescing (every submission dispatches
        #: immediately, bit-identical to the base client).
        self.max_batch = max(1, int(max_batch))
        #: Time trigger: a buffer flushes this long after its first message.
        self.max_delay_ms = float(max_delay_ms)
        self._schedule = schedule
        self._buffers: Dict[FrozenSet[GroupId], List[Message]] = {}
        self._timers: Dict[FrozenSet[GroupId], Any] = {}
        #: Per destination set, the ids of dispatched messages still waiting
        #: for responses.  An empty (or absent) set is idle.  GC flushes are
        #: never counted, and a member that completed before its window
        #: shipped (a re-submission) is not counted again.
        self._unanswered: Dict[FrozenSet[GroupId], Set[str]] = {}
        self._batch_seq = 0
        #: Every batch shipped: ``(batch_id, member msg_ids)`` in send order.
        #: The fuzz harness uses this to run the batch-atomicity oracle (a
        #: lost batch must degrade exactly like N lost messages).
        self.batch_log: List[Tuple[str, Tuple[str, ...]]] = []
        self.stats = {
            "batches_sent": 0,
            "singles_sent": 0,
            "messages_batched": 0,
            # Why each window closed (size trigger / delay timer / nothing
            # of its destination set in flight / explicit flush call).
            "flush_size": 0,
            "flush_timer": 0,
            "flush_idle": 0,
            "flush_explicit": 0,
        }
        #: Window-occupancy histogram (``None`` until attach_obs).
        self._occupancy_hist: Optional[Histogram] = None

    def attach_obs(self, obs: Observability) -> None:
        """Attach an observability hub (extends the base ``submit`` spans).

        Registers callback counters over :attr:`stats` (flush reasons,
        batch/single counts) and a window-occupancy histogram observed
        once per closed window.
        """
        super().attach_obs(obs)
        labels = {"client": self.client_id}
        for key in self.stats:
            obs.registry.counter(
                f"batching_{key}_total",
                f"Batching client event count: {key.replace('_', ' ')}.",
                labels,
                fn=(lambda k=key: self.stats[k]),
            )
        obs.registry.gauge(
            "batching_buffered",
            "Messages currently waiting in open windows.",
            labels,
            fn=lambda: self.buffered,
        )
        self._occupancy_hist = obs.registry.histogram(
            "batching_window_occupancy",
            "Messages per closed window (1 = shipped as a plain request).",
            labels,
            bounds=SIZE_BUCKETS,
        )

    # -------------------------------------------------------------- dispatch
    def _dispatch(self, message: Message) -> None:
        """Buffer ``message`` under its destination-set window."""
        if self.max_batch <= 1 or message.is_flush:
            # Flushes are GC ordering barriers: delaying one behind a window
            # would reorder it against the traffic it is meant to collect.
            self.stats["singles_sent"] += 1
            super()._dispatch(message)
            return
        key = message.dst
        buffer = self._buffers.setdefault(key, [])
        buffer.append(message)
        if len(buffer) >= self.max_batch:
            self._flush_window(key, reason="size")
        elif not self._unanswered.get(key):
            self._flush_window(key, reason="idle")
        elif self._schedule is not None and key not in self._timers:
            self._timers[key] = self._schedule(
                self.max_delay_ms, lambda key=key: self._on_timer(key)
            )

    def _on_timer(self, key: FrozenSet[GroupId]) -> None:
        self._timers.pop(key, None)
        self._flush_window(key, reason="timer")

    def _flush_window(
        self, key: FrozenSet[GroupId], reason: str = "explicit"
    ) -> None:
        """Close one destination-set window and ship its contents."""
        timer = self._timers.pop(key, None)
        if timer is not None and hasattr(timer, "cancel"):
            timer.cancel()
        buffer = self._buffers.pop(key, None)
        if not buffer:
            return
        self.stats[f"flush_{reason}"] += 1
        if self._occupancy_hist is not None:
            self._occupancy_hist.observe(float(len(buffer)))
        if self._tracer is not None:
            now = self._clock()
            for member in buffer:
                self._tracer.record(
                    member.trace, STAGE_BATCH_FLUSH, now, self.client_id, reason
                )
        inflight = self.inflight
        self._unanswered.setdefault(key, set()).update(
            m.msg_id for m in buffer if m.msg_id in inflight
        )
        if len(buffer) == 1:
            # A window of one is shipped exactly as the unbatched client
            # would — same envelope, same route — so partially filled
            # windows never change protocol behaviour, only timing.
            self.stats["singles_sent"] += 1
            super()._dispatch(buffer[0])
            return
        self._batch_seq += 1
        carrier = Message.batch_of(
            buffer, batch_id=f"{self.client_id}-b{self._batch_seq}"
        )
        self.batch_log.append(
            (carrier.msg_id, tuple(m.msg_id for m in buffer))
        )
        self.stats["batches_sent"] += 1
        self.stats["messages_batched"] += len(buffer)
        request = FlexCastBatch(message=carrier)
        for entry in self._protocol.entry_groups(carrier):
            self._send_request(entry, request)

    # -------------------------------------------------------------- responses
    def on_response(self, group: GroupId, msg_id: str) -> Optional[MulticastCall]:
        """Record a delivery confirmation (see the base class); the one that
        completes a destination set's last in-flight message ships the
        window waiting behind it."""
        call = super().on_response(group, msg_id)
        if call is not None:
            key = call.message.dst
            unanswered = self._unanswered.get(key)
            if unanswered:
                unanswered.discard(msg_id)
                if not unanswered and key in self._buffers:
                    self._flush_window(key, reason="idle")
        return call

    # --------------------------------------------------------------- control
    def flush(self) -> None:
        """Close every open window immediately (e.g. before shutdown)."""
        for key in list(self._buffers):
            self._flush_window(key)

    @property
    def buffered(self) -> int:
        """Messages currently waiting in open windows."""
        return sum(len(buffer) for buffer in self._buffers.values())
