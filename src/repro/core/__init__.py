"""FlexCast core: messages, histories, the protocol itself, GC, clients and batching.

Main entry points: :class:`FlexCastProtocol` (deploy the protocol on a C-DAG
overlay), :class:`Message` (the application multicast unit),
:class:`MulticastClient` / :class:`BatchingClient` (submission + response
tracking, unbatched and window-coalesced), and :class:`FlushCoordinator`
(periodic garbage-collection flush multicasts).
"""

from .batching import BatchingClient
from .client import MulticastCall, MulticastClient
from .flexcast import FlexCastGroup, FlexCastProtocol, PendingMessage
from .garbage import FlushCoordinator
from .history import History
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
    SkeenTimestamp,
    TreeForward,
)

__all__ = [
    "BatchingClient",
    "MulticastCall",
    "MulticastClient",
    "FlexCastGroup",
    "FlexCastProtocol",
    "PendingMessage",
    "FlushCoordinator",
    "History",
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
    "SkeenTimestamp",
    "TreeForward",
]
