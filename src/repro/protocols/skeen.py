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
4. messages are delivered in final-timestamp order; a message with a final
   timestamp can only be delivered once no pending message could still obtain
   a smaller final timestamp (this wait is the source of the *convoy effect*
   discussed in the paper).

The protocol is genuine (only destinations exchange messages) and delivers in
two communication steps after the client's send, which is optimal.

The timestamp machinery itself — clock, proposal max-merge, the convoy-wait
delivery gate — lives in :class:`repro.core.timestamps.TimestampAuthority`;
this module only adds the wire protocol around it.
"""

from __future__ import annotations

from typing import Dict, Hashable, List

from ..core.message import ClientRequest, Envelope, Message, SkeenPropose, SkeenTimestamp
from ..core.timestamps import TimestampAuthority
from ..overlay.base import GroupId, Overlay
from ..sim.transport import Transport
from .base import (
    AtomicMulticastGroup,
    AtomicMulticastProtocol,
    DeliverySink,
    ProtocolError,
)

__all__ = ["SkeenGroup", "SkeenProtocol", "TimestampAuthority"]


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
        #: Timestamp state: Lamport clock, proposals, convoy-wait gate.
        self.authority = TimestampAuthority(group_id)
        #: msg_id -> message, for proposed-but-undelivered messages.
        self._messages: Dict[str, Message] = {}
        self.stats = {"proposals_sent": 0, "timestamps_received": 0}

    @property
    def clock(self) -> int:
        """The group's logical clock (exposed for tests/diagnostics)."""
        return self.authority.clock

    # ------------------------------------------------------------ entry points
    def on_client_request(self, message: Message) -> None:
        if self.group_id not in message.dst:
            raise ProtocolError(
                f"group {self.group_id} is not a destination of {message.msg_id}"
            )
        self._propose(message)

    def on_envelope(self, sender: Hashable, envelope: Envelope) -> None:
        if isinstance(envelope, (ClientRequest, SkeenPropose)):
            self.on_client_request(envelope.message)
        elif isinstance(envelope, SkeenTimestamp):
            self._on_timestamp(envelope)
        else:
            raise ProtocolError(f"Skeen group got unexpected envelope {envelope!r}")

    # ---------------------------------------------------------------- algorithm
    def _propose(self, message: Message) -> None:
        if self.has_delivered(message.msg_id):
            return  # duplicate submission of a resolved message
        local_timestamp = self.authority.propose(message.msg_id, message.dst)
        if local_timestamp is None:
            return  # duplicate submission of a pending message
        self._messages[message.msg_id] = message
        self.stats["proposals_sent"] += 1
        for dest in message.dst:
            if dest == self.group_id:
                continue
            self.send(
                dest,
                SkeenTimestamp(
                    msg_id=message.msg_id,
                    timestamp=local_timestamp,
                    from_group=self.group_id,
                ),
            )
        self._try_deliver()

    def _on_timestamp(self, envelope: SkeenTimestamp) -> None:
        self.stats["timestamps_received"] += 1
        if self.has_delivered(envelope.msg_id):
            # Late duplicate for a delivered message: advance the clock
            # (Lamport receive rule) without touching per-message state —
            # the authority's entry was dropped at delivery (see
            # _try_deliver), so observe() would re-buffer it as an early
            # proposal that nothing ever cleans up.
            self.authority.clock = max(self.authority.clock, envelope.timestamp)
            return
        self.authority.observe(envelope.msg_id, envelope.from_group, envelope.timestamp)
        self._try_deliver()

    def _try_deliver(self) -> None:
        """Deliver decided messages whose timestamp can no longer be undercut."""
        while True:
            msg_id = self.authority.next_deliverable()
            if msg_id is None:
                return
            self.authority.complete(msg_id)
            # The base class's delivered-record is this protocol's duplicate
            # guard, so the authority's completed-memory is shed immediately
            # and its state stays O(pending) for the group's lifetime
            # (FlexCast, by contrast, sheds it on flush GC).
            self.authority.forget((msg_id,))
            self.deliver(self._messages.pop(msg_id))

    # --------------------------------------------------------------- inspection
    def pending_count(self) -> int:
        return self.authority.pending_count()


class SkeenProtocol(AtomicMulticastProtocol):
    """Deployment descriptor for the distributed (Skeen) baseline."""

    name = "Distributed"
    genuine = True

    def __init__(self, overlay: Overlay) -> None:
        super().__init__(overlay)

    def create_group(
        self, group_id: GroupId, transport: Transport, sink: DeliverySink
    ) -> SkeenGroup:
        return SkeenGroup(group_id, self.overlay, transport, sink)

    def entry_groups(self, message: Message) -> List[GroupId]:
        """The client sends the message to every destination group."""
        self.validate_message(message)
        return sorted(message.dst)
