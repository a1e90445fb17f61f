"""Boot-time recovery glue: restore a protocol group from durable storage.

The protocol factories (``protocol.create_group(group_id, transport, sink)``)
are storage-agnostic, so recovery is applied *after* construction: build the
group as usual, then :func:`attach_group_storage` swaps in the recovered
history (snapshot + WAL-suffix replay via :meth:`History.recover`) and
rebuilds the derived protocol state the history alone determines:

* the group's delivery registry (what ``has_delivered`` answers from) from
  the history's locally-delivered ids;
* the pending-delivery index ``_undelivered_to_me`` (history vertices
  addressed to this group and not yet delivered).

In-flight protocol exchanges (queued envelopes, unacked notifs) are *not*
durable — by design.  They are the peers' responsibility: ancestors keep
re-shipping history diffs, the SMR path replays its commit log, and clients
re-submit on timeout; every one of those paths is idempotent.
"""

from __future__ import annotations

from typing import Any

from ..core.history import SNAPSHOT_MIN_WAL_RECORDS, History
from ..core.message import HistorySnapshotFrame
from .base import Storage


def attach_group_storage(
    group: Any,
    storage: Storage,
    name: str,
    snapshot_min_wal_records: int = SNAPSHOT_MIN_WAL_RECORDS,
) -> int:
    """Restore ``group``'s durable history state from ``storage`` and attach it.

    ``group`` is any protocol group exposing a ``history`` attribute (the
    FlexCast family); the protocol state derived from the history is
    rebuilt.  Returns the number of locally delivered messages restored
    (0 on a cold start).
    """
    if not hasattr(group, "history"):
        raise TypeError(f"{type(group).__name__} has no history to make durable")
    recovered = History.recover(
        storage, name, snapshot_min_wal_records=snapshot_min_wal_records
    )
    group.history = recovered
    delivered = recovered.delivered_locally
    # The base class raises on double-delivery; seed its registry so a
    # replayed envelope for an already-delivered message is absorbed
    # upstream (the enqueue paths ask has_delivered first).
    group._delivered_ids |= delivered
    group._undelivered_to_me.update(
        mid
        for mid in recovered.messages_addressed_to(group.group_id)
        if mid not in delivered
    )
    return len(delivered)


def snapshot_frame_for(group: Any, epoch: int = 0) -> HistorySnapshotFrame:
    """Pack ``group``'s live history into a cold-sync frame.

    The frame carries the packed snapshot + journal suffix
    (:meth:`History.cold_delta`), the same O(affected) transfer shape every
    diff path uses — ``restart_replica`` orders one through the replicated
    log so a rejoining replica bulk-installs instead of replaying per-entry
    deltas, and survivors no-op on the idempotent merge.
    """
    if not hasattr(group, "history"):
        raise TypeError(f"{type(group).__name__} has no history to snapshot")
    return HistorySnapshotFrame(
        group=getattr(group, "group_id", 0),
        delta=group.history.cold_delta(),
        epoch=epoch,
    )


def apply_snapshot_frame(group: Any, frame: HistorySnapshotFrame) -> None:
    """Bulk-install a cold-sync frame into ``group``.

    Delegates to the group's own handler when it has one (the FlexCast
    family dispatches it through ``on_envelope``), so merge side effects
    (open-dependency index, dirty queues, timestamp acquisition) happen
    exactly as they would for any received delta.
    """
    if hasattr(group, "on_envelope"):
        group.on_envelope("recovery", frame)
        return
    if not hasattr(group, "history"):
        raise TypeError(f"{type(group).__name__} cannot apply a snapshot frame")
    group.history.merge_delta(frame.delta)
