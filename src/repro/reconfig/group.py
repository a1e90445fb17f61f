"""Epoch-aware FlexCast group and protocol.

:class:`ReconfigurableFlexCastGroup` extends the base FlexCast logic with the
group-side half of the epoch state machine (the coordinator side lives in
:mod:`repro.reconfig.coordinator`):

``NORMAL`` --EpochPrepare--> ``QUIESCING`` --EpochSwitch--> ``NORMAL``

* **QUIESCING** — new (non-flush) client requests are parked; in-flight
  protocol envelopes of the current epoch keep being processed so open
  dependencies drain.  The group answers :class:`QuiesceQuery` probes with its
  local drain state plus cumulative sent/received envelope counters.
* **Switch** — :meth:`FlexCastGroup.install_overlay` swaps the overlay under
  the new epoch; parked client requests are re-routed to their (possibly
  different) lca under the new rank order, and envelopes that arrived early
  from already-switched peers are replayed.
* **Stale-epoch bounce** — an envelope stamped with an older epoch than the
  receiver's is never processed (its rank assumptions are void); the receiver
  bounces the application message back so the sender re-submits it through
  the current overlay.  Re-submission is idempotent: requests for messages a
  group already delivered are dropped.
"""

from __future__ import annotations

from typing import Hashable, List, Tuple

from ..core.flexcast import FlexCastGroup, FlexCastProtocol
from ..core.message import (
    ClientRequest,
    Envelope,
    EpochBounce,
    EpochPrepare,
    EpochPrepareAck,
    EpochSwitch,
    EpochSwitchAck,
    FlexCastAck,
    FlexCastMsg,
    FlexCastNotif,
    FlexCastTsPropose,
    QuiesceQuery,
    QuiesceReply,
)
from ..core.timestamps import Exposure
from ..overlay.base import GroupId
from ..overlay.cdag import CDagOverlay
from ..protocols.base import DeliverySink
from ..sim.transport import Transport

#: Envelope kinds whose epoch stamp gates processing (rank-order dependent).
#: :class:`FlexCastTsPropose` is deliberately absent: timestamp proposals
#: depend only on a message's destination set, never on the overlay's rank
#: order, so they are processed in every epoch state — while quiescing, from
#: peers that already switched, and from stragglers that have not.  Bouncing
#: or parking them would only delay the convoy drain the switch waits for.
_EPOCH_STAMPED = (FlexCastMsg, FlexCastAck, FlexCastNotif)


class ReconfigurableFlexCastGroup(FlexCastGroup):
    """FlexCast group that can live-switch overlays under an epoch protocol."""

    def __init__(
        self,
        group_id: GroupId,
        overlay: CDagOverlay,
        transport: Transport,
        sink: DeliverySink,
        exposure: Exposure = Exposure.none(),
    ) -> None:
        super().__init__(group_id, overlay, transport, sink, exposure=exposure)
        #: True between EpochPrepare and EpochSwitch (client intake parked).
        self.quiescing = False
        #: The announced epoch barrier — the only flush intake stays open for.
        self._pending_barrier_id: str = ""
        #: Client requests received while quiescing, replayed after the switch.
        self._parked_requests: List[Tuple[Hashable, ClientRequest]] = []
        #: Envelopes from peers that already switched to a later epoch.
        self._future_envelopes: List[Tuple[Hashable, Envelope]] = []
        self.stats.update(
            {
                "requests_parked": 0,
                "requests_rerouted": 0,
                "stale_bounced": 0,
                "future_parked": 0,
                "epoch_switches": 0,
            }
        )

    # ------------------------------------------------------------ dispatching
    def on_envelope(self, sender: Hashable, envelope: Envelope) -> None:
        if isinstance(envelope, EpochPrepare):
            self._on_epoch_prepare(envelope)
            return
        if isinstance(envelope, QuiesceQuery):
            self._on_quiesce_query(envelope)
            return
        if isinstance(envelope, EpochSwitch):
            self._on_epoch_switch(envelope)
            return
        if isinstance(envelope, EpochBounce):
            self._on_epoch_bounce(sender, envelope)
            return
        if isinstance(envelope, ClientRequest):
            self._on_request(sender, envelope)
            return
        if isinstance(envelope, FlexCastTsPropose):
            # Rank-independent (see _EPOCH_STAMPED): processed unconditionally
            # so convoy-blocked messages keep deciding while the drain runs.
            super().on_envelope(sender, envelope)
            return
        if isinstance(envelope, _EPOCH_STAMPED):
            if envelope.epoch > self.epoch:
                # A peer already switched; we have not seen our EpochSwitch
                # yet.  Processing under the old rank order would be wrong, so
                # hold the envelope until the switch arrives.
                self.stats["future_parked"] += 1
                self._future_envelopes.append((sender, envelope))
                return
            if envelope.epoch < self.epoch:
                # Stale traffic from before the switch (only reachable when a
                # sender raced the drain): its rank assumptions are void.
                # Bounce the application message back for re-routing.  The
                # envelope still left the wire here, so it must count as
                # received — otherwise the global sent/received totals the
                # next drain compares would stay unequal forever.
                self.stats["stale_bounced"] += 1
                if isinstance(envelope, FlexCastMsg):
                    self.stats["msgs_received"] += 1
                elif isinstance(envelope, FlexCastAck):
                    self.stats["acks_received"] += 1
                else:
                    self.stats["notifs_received"] += 1
                self.send(
                    sender,
                    EpochBounce(
                        message=envelope.message,
                        epoch=self.epoch,
                        from_group=self.group_id,
                    ),
                )
                return
        super().on_envelope(sender, envelope)

    # --------------------------------------------------------- client requests
    def _on_request(self, sender: Hashable, envelope: ClientRequest) -> None:
        message = envelope.message
        if self._resolved(message.msg_id):
            # Idempotent re-route / re-submission.
            return
        if self.quiescing and message.msg_id != self._pending_barrier_id:
            # Intake is closed while the old epoch drains; only the announced
            # epoch barrier may pass (it must, or the drain would deadlock).
            # Any other message — including ordinary GC flushes — parks, else
            # it could slip in after the drain completed and end up delivered
            # under two different epochs.
            self.stats["requests_parked"] += 1
            self._parked_requests.append((sender, envelope))
            return
        lca = self.overlay.lca(message.dst)
        if lca != self.group_id:
            # The client routed with a stale overlay view; forward to the lca
            # of the current epoch instead of rejecting.
            self.stats["requests_rerouted"] += 1
            self.send(lca, envelope)
            return
        super().on_envelope(sender, envelope)

    # ------------------------------------------------------------- epoch hooks
    def _on_epoch_prepare(self, envelope: EpochPrepare) -> None:
        if envelope.new_epoch == self.epoch + 1:
            self.quiescing = True
            self._pending_barrier_id = envelope.barrier_id
        # Ack unconditionally (idempotent; a duplicate prepare re-acks).
        self.send(
            envelope.reply_to,
            EpochPrepareAck(new_epoch=envelope.new_epoch, group=self.group_id),
        )

    def _on_quiesce_query(self, envelope: QuiesceQuery) -> None:
        stats = self.stats
        self.send(
            envelope.reply_to,
            QuiesceReply(
                new_epoch=envelope.new_epoch,
                round_id=envelope.round_id,
                group=self.group_id,
                quiescent=self.is_quiescent(),
                barrier_delivered=self.has_delivered(envelope.barrier_id),
                envelopes_sent=stats["msgs_sent"]
                + stats["acks_sent"]
                + stats["notifs_sent"],
                envelopes_received=stats["msgs_received"]
                + stats["acks_received"]
                + stats["notifs_received"],
            ),
        )

    def _on_epoch_switch(self, envelope: EpochSwitch) -> None:
        # Only the immediately next epoch is installable: a jump would mean
        # a drain this group never participated in (single-coordinator
        # deployments cannot produce one; refuse rather than guess).
        if envelope.new_epoch == self.epoch + 1:
            self.install_overlay(CDagOverlay(list(envelope.order)), envelope.new_epoch)
            self.quiescing = False
            self._pending_barrier_id = ""
            self.stats["epoch_switches"] += 1
        self.send(
            envelope.reply_to,
            EpochSwitchAck(epoch=self.epoch, group=self.group_id),
        )
        if envelope.new_epoch == self.epoch:
            # Envelopes from peers that switched before us, in arrival order.
            future, self._future_envelopes = self._future_envelopes, []
            for sender, early in future:
                self.on_envelope(sender, early)
            # Parked client intake, re-routed under the new rank order.
            parked, self._parked_requests = self._parked_requests, []
            for sender, request in parked:
                self._on_request(sender, request)

    def _on_epoch_bounce(self, sender: Hashable, envelope: EpochBounce) -> None:
        request = ClientRequest(message=envelope.message)
        if envelope.epoch > self.epoch:
            # We are the stale side; park until our own switch, then re-route.
            self.stats["requests_parked"] += 1
            self._parked_requests.append((sender, request))
            return
        self._on_request(sender, request)


class ReconfigurableFlexCastProtocol(FlexCastProtocol):
    """FlexCast deployment whose overlay can be swapped at runtime.

    ``overlay`` always reflects the *committed* epoch: the coordinator only
    swaps it after every group acknowledged the switch, so clients that route
    through :meth:`entry_groups` are at most one epoch behind — and groups
    re-route such stragglers to the correct lca.
    """

    name = "FlexCast (reconfigurable)"

    def create_group(
        self, group_id: GroupId, transport: Transport, sink: DeliverySink
    ) -> ReconfigurableFlexCastGroup:
        return ReconfigurableFlexCastGroup(
            group_id, self.overlay, transport, sink, exposure=self.exposure
        )

    def install_overlay(self, overlay: CDagOverlay) -> None:
        """Commit a new overlay for client routing (coordinator use only)."""
        if not isinstance(overlay, CDagOverlay):
            raise TypeError("FlexCast requires a complete-DAG overlay")
        if set(overlay.groups) != set(self.overlay.groups):
            raise ValueError("reconfiguration must preserve the group set")
        self.overlay = overlay
