"""Distributed baseline: Skeen's genuine atomic multicast.

Paper §3 and §5.1: the "Distributed" protocol in the evaluation is Skeen's
classic timestamp-based algorithm, because with single-process groups the
modern descendants (FastCast, WhiteBox, RamCast, …) all behave like it.

Algorithm (for a message ``m`` multicast to groups ``m.dst``):

1. the client sends ``m`` to *every* destination group;
2. each destination assigns ``m`` a local logical timestamp and sends it to
   every other destination of ``m`` (one communication step between any two
   destinations — the protocol assumes a fully connected overlay);
3. when a destination holds local timestamps from *all* destinations, the
   final timestamp of ``m`` is their maximum;
4. messages are delivered in ``(final timestamp, msg_id)`` order; a message
   with a final timestamp can only be delivered once no pending message could
   still obtain a smaller key (this wait is the source of the *convoy effect*
   discussed in the paper).

The protocol is genuine (only destinations exchange messages) and delivers in
two communication steps after the client's send, which is optimal.

This module holds the algorithm whole: the Lamport clock, the per-message
proposals (max-merged, so a duplicated envelope can never lower a bound) and
the convoy wait.  Each group's clock is max-merged past every timestamp it
sees, so a message proposed later can never undercut one already delivered:
the delivered sequence at each group is strictly increasing in
``(ts, msg_id)``, one global total order.  A message's state is dropped when
it is delivered; from then on the group's delivered-record alone absorbs its
duplicates.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from ..core.message import ClientRequest, Envelope, Message, SkeenTimestamp
from ..overlay.base import GroupId, Overlay
from ..sim.transport import Transport
from .base import (
    AtomicMulticastGroup,
    AtomicMulticastProtocol,
    DeliverySink,
    ProtocolError,
)

__all__ = ["SkeenGroup", "SkeenProtocol"]


class _Pending:
    """Timestamp state of one proposed-but-undelivered message."""

    __slots__ = ("message", "local", "proposals", "final")

    def __init__(self, message: Message, local: int) -> None:
        self.message = message
        #: Timestamp this group proposed.
        self.local = local
        #: Proposals received so far (this group's own included), max-merged.
        self.proposals: Dict[GroupId, int] = {}
        #: Final (maximum) timestamp; ``None`` while proposals are missing.
        self.final: Optional[int] = None

    def key(self) -> Tuple[int, str]:
        """Delivery sort key: the local proposal, a lower bound on the final
        timestamp, stands in until the final is decided.  The id makes the
        order total."""
        ts = self.local if self.final is None else self.final
        return (ts, self.message.msg_id)


def _merge(proposals: Dict[GroupId, int], group: GroupId, timestamp: int) -> None:
    """Record ``group``'s proposal, keeping the max on duplicates."""
    proposals[group] = max(timestamp, proposals.get(group, timestamp))


class SkeenGroup(AtomicMulticastGroup):
    """One destination group running Skeen's algorithm."""

    def __init__(
        self,
        group_id: GroupId,
        overlay: Overlay,
        transport: Transport,
        sink: DeliverySink,
    ) -> None:
        super().__init__(group_id, transport, sink)
        self.overlay = overlay
        #: Lamport clock every local timestamp is drawn from.
        self.clock = 0
        #: msg_id -> timestamp state, for proposed-but-undelivered messages.
        self._pending: Dict[str, _Pending] = {}
        #: Proposals that arrived before this group's own first contact.
        self._early: Dict[str, Dict[GroupId, int]] = {}

    # ------------------------------------------------------------ entry points
    def on_client_request(self, message: Message) -> None:
        if self.group_id not in message.dst:
            raise ProtocolError(
                f"group {self.group_id} is not a destination of {message.msg_id}"
            )
        self._propose(message)

    def on_envelope(self, sender: Hashable, envelope: Envelope) -> None:
        if isinstance(envelope, ClientRequest):
            self.on_client_request(envelope.message)
        elif isinstance(envelope, SkeenTimestamp):
            self._on_timestamp(envelope)
        else:
            raise ProtocolError(f"Skeen group got unexpected envelope {envelope!r}")

    # ---------------------------------------------------------------- algorithm
    def _propose(self, message: Message) -> None:
        msg_id = message.msg_id
        if msg_id in self._pending or self.has_delivered(msg_id):
            return  # a duplicate must not mint a second proposal
        self.clock += 1
        entry = self._pending[msg_id] = _Pending(message, self.clock)
        entry.proposals[self.group_id] = self.clock
        for group, timestamp in self._early.pop(msg_id, {}).items():
            _merge(entry.proposals, group, timestamp)
        self._decide(entry)
        for dest in message.dst:
            if dest == self.group_id:
                continue
            self.send(
                dest,
                SkeenTimestamp(
                    msg_id=msg_id, timestamp=entry.local, from_group=self.group_id
                ),
            )
        self._try_deliver()

    def _on_timestamp(self, envelope: SkeenTimestamp) -> None:
        msg_id, timestamp = envelope.msg_id, envelope.timestamp
        self.clock = max(self.clock, timestamp)  # Lamport receive rule
        if self.has_delivered(msg_id):
            return  # late duplicate: only the clock learns from it
        entry = self._pending.get(msg_id)
        if entry is None:
            # Raced ahead of our own first contact; buffer until _propose.
            _merge(self._early.setdefault(msg_id, {}), envelope.from_group, timestamp)
            return
        _merge(entry.proposals, envelope.from_group, timestamp)
        self._decide(entry)
        self._try_deliver()

    def _decide(self, entry: _Pending) -> None:
        """Fix the final timestamp once every destination has proposed.  The
        clock has already passed every proposal, so it passes the final."""
        if entry.final is None and entry.proposals.keys() >= entry.message.dst:
            entry.final = max(entry.proposals.values())

    def _try_deliver(self) -> None:
        """Deliver while the smallest key is decided: keys are unique, so
        nothing pending can undercut it.  An undecided smallest key is the
        convoy wait."""
        while self._pending:
            entry = min(self._pending.values(), key=_Pending.key)
            if entry.final is None:
                return
            del self._pending[entry.message.msg_id]
            self.deliver(entry.message)

    # --------------------------------------------------------------- inspection
    def pending_count(self) -> int:
        return len(self._pending)


class SkeenProtocol(AtomicMulticastProtocol):
    """Deployment descriptor for the distributed (Skeen) baseline."""

    name = "Distributed"
    genuine = True

    def create_group(
        self, group_id: GroupId, transport: Transport, sink: DeliverySink
    ) -> SkeenGroup:
        return SkeenGroup(group_id, self.overlay, transport, sink)

    def entry_groups(self, message: Message) -> List[GroupId]:
        """The client sends the message to every destination group."""
        self.validate_message(message)
        return sorted(message.dst)
