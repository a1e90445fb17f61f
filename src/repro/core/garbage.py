"""Flush-based garbage collection (paper §4.3).

FlexCast histories grow with every delivered message.  The paper prunes them
with a *flush* mechanism: a distinguished process periodically multicasts a
``flush`` message addressed to **all** groups.  Once a group delivers the
flush it knows that every message ordered before it has been resolved wherever
it mattered, so those history entries can be forgotten.

:class:`FlushCoordinator` plays the distinguished process.  It is just another
client of the protocol (it submits ordinary multicast messages flagged
``is_flush``); the pruning itself happens inside
:meth:`repro.core.flexcast.FlexCastGroup._garbage_collect`.

Beyond the history vertices themselves, a flush also bounds the *incremental*
bookkeeping (DESIGN.md): the per-group destination index sheds the pruned
ids, the history version each channel has shipped stays valid as-is, and the
history's change journal is compacted up to the lowest of those versions
among the peers the group has sent to (within a cap proportional to the live
history) — so every index the hot path relies on stays O(live history),
making the flush interval the single knob that trades memory for (tiny)
extra protocol traffic.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..overlay.base import GroupId
from ..sim.events import EventLoop, PeriodicTimer
from .message import Message


class FlushCoordinator:
    """Periodically injects flush messages into a FlexCast deployment.

    Parameters
    ----------
    loop:
        Simulation event loop used for the periodic timer.
    groups:
        All group ids in the deployment (flushes are addressed to every group).
    submit:
        Callback that routes a message into the protocol exactly like a client
        would (the experiment runner wires this to the lca of the flush).
    interval_ms:
        Time between flushes; a lower interval keeps histories smaller at the
        cost of extra (tiny) protocol traffic.
    """

    def __init__(
        self,
        loop: EventLoop,
        groups: List[GroupId],
        submit: Callable[[Message], None],
        interval_ms: float = 2_000.0,
        sender_id: str = "flush-coordinator",
    ) -> None:
        if not groups:
            raise ValueError("flush coordinator needs at least one group")
        self._loop = loop
        self._groups = list(groups)
        self._submit = submit
        self._sender_id = sender_id
        self.flushes_sent = 0
        self._timer: Optional[PeriodicTimer] = None
        self._interval = float(interval_ms)

    def start(self) -> None:
        """Begin emitting flush messages every ``interval_ms``."""
        if self._timer is not None:
            return
        self._timer = PeriodicTimer(self._loop, self._interval, self.flush_now)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def flush_now(self) -> None:
        """Multicast a single flush message to all groups immediately."""
        flush = Message.create(
            destinations=self._groups,
            sender=self._sender_id,
            payload="flush",
            payload_bytes=8,
            is_flush=True,
        )
        self.flushes_sent += 1
        self._submit(flush)

    @property
    def running(self) -> bool:
        return self._timer is not None and self._timer.active
