"""FlexCast core: messages, histories, the protocol itself, GC, clients and batching.

Main entry points: :class:`FlexCastProtocol` (deploy the protocol on a C-DAG
overlay; ``exposure=`` an :class:`Exposure` picks what the Skeen-timestamp
authority orders), :class:`Message` (the application multicast unit),
:class:`MulticastClient` / :class:`BatchingClient` (submission + response
tracking, unbatched and window-coalesced), and :class:`FlushCoordinator`
(periodic garbage-collection flush multicasts).
"""

from .batching import BatchingClient
from .client import MulticastCall, MulticastClient
from .flexcast import FlexCastGroup, FlexCastProtocol, PendingMessage
from .garbage import FlushCoordinator
from .history import History, HistoryDiffTracker
from .message import (
    ClientRequest,
    ClientResponse,
    EMPTY_DELTA,
    Envelope,
    FlexCastAck,
    FlexCastBatch,
    FlexCastMsg,
    FlexCastNotif,
    HistoryDelta,
    Message,
    PAYLOAD_KINDS,
    SkeenPropose,
    SkeenTimestamp,
    TreeForward,
    fresh_message_id,
    reset_message_ids,
)
from .timestamps import Exposure

__all__ = [
    "BatchingClient",
    "MulticastCall",
    "MulticastClient",
    "FlexCastGroup",
    "FlexCastProtocol",
    "PendingMessage",
    "FlushCoordinator",
    "Exposure",
    "History",
    "HistoryDiffTracker",
    "ClientRequest",
    "ClientResponse",
    "EMPTY_DELTA",
    "Envelope",
    "FlexCastAck",
    "FlexCastBatch",
    "FlexCastMsg",
    "FlexCastNotif",
    "HistoryDelta",
    "Message",
    "PAYLOAD_KINDS",
    "SkeenPropose",
    "SkeenTimestamp",
    "TreeForward",
    "fresh_message_id",
    "reset_message_ids",
]
