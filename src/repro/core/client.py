"""Client-side helper for atomic multicast.

A client in the paper's system model multicasts a message and, in the
evaluation, receives one response from each destination group when that group
delivers the message.  :class:`MulticastCall` tracks one in-flight multicast;
:class:`MulticastClient` names, tracks and completes every multicast of the
repo: the simulator's closed-loop workload clients
(:mod:`repro.workload.clients`), the batching client
(:class:`repro.core.batching.BatchingClient`) and the asyncio runtime's
:class:`repro.runtime.client.AsyncMulticastClient`, which awaits the calls
of one of them over TCP.

As a sender in the paper, every client names its own messages
(``<client_id>-<n>``, and its batch carriers ``<client_id>-b<n>``): no id
comes from state shared across clients, so a run is a function of its
inputs and ids stay unique across processes as long as client ids do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional

from ..obs import STAGE_SUBMIT, Observability, Tracer
from ..overlay.base import GroupId
from ..protocols.base import AtomicMulticastProtocol
from .message import ClientRequest, FlexCastBatch, Message


@dataclass
class MulticastCall:
    """Book-keeping for one multicast issued by a client."""

    message: Message
    submitted_at: float
    #: Delivery confirmations received so far: group -> response time.
    responses: Dict[GroupId, float] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        """True when every destination group responded."""
        return self.responses.keys() >= self.message.dst

    def record_response(self, group: GroupId, at: float) -> bool:
        """Record a response; returns True if it completed the call."""
        if group not in self.message.dst:
            raise ValueError(
                f"response from {group} for {self.message.msg_id}, "
                f"which is not addressed to it"
            )
        self.responses.setdefault(group, at)
        return self.complete

    def latencies_by_arrival(self) -> List[float]:
        """Per-destination latencies sorted by arrival (1st, 2nd, 3rd, ...).

        This is exactly the quantity the paper plots: "the latency of the
        first (respectively second and third) destination corresponds to the
        first (respectively second and third) response the client receives".
        """
        return sorted(t - self.submitted_at for t in self.responses.values())


class MulticastClient:
    """Protocol-agnostic client: builds requests and tracks responses.

    The transport-specific part (how a request physically reaches a group and
    how responses come back) is injected via ``send_request``.
    """

    def __init__(
        self,
        client_id: str,
        protocol: AtomicMulticastProtocol,
        send_request: Callable[[GroupId, ClientRequest], None],
        clock: Callable[[], float],
    ) -> None:
        self.client_id = client_id
        self._protocol = protocol
        self._send_request = send_request
        self._clock = clock
        #: Messages and batch carriers this client has named: the next are
        #: ``<client_id>-<n + 1>`` and ``<client_id>-b<n + 1>``.
        self._named = 0
        self._carriers = 0
        self.inflight: Dict[str, MulticastCall] = {}
        self.completed: List[MulticastCall] = []
        #: Lifecycle tracer (``None`` = off); see :meth:`attach_obs`.
        self._tracer: Optional[Tracer] = None

    def attach_obs(self, obs: Observability) -> None:
        """Attach an observability hub: submissions get ``submit`` spans."""
        self._tracer = obs.tracer

    # ---------------------------------------------------------------- sending
    def multicast(
        self,
        destinations: Iterable[GroupId],
        payload: Any = None,
        payload_bytes: int = 64,
    ) -> Message:
        """Multicast a fresh message and start tracking its responses.

        The message is named ``<client_id>-<n>``, with ``n`` counted from 1
        per client, so ids are unique as long as client ids are.
        """
        message = self._message(destinations, payload, payload_bytes)
        self.submit(message)
        return message

    def multicast_batch(
        self,
        destinations: Iterable[GroupId],
        payloads: Iterable[Any],
        payload_bytes: int = 64,
    ) -> List[Message]:
        """Multicast ``payloads`` as one batch; returns the member messages.

        Each payload becomes a message named and tracked like one of
        :meth:`multicast`; all of them travel as one
        :class:`~repro.core.message.FlexCastBatch` carrier, which the lca
        orders as one unit and every destination fans out into per-member
        deliveries, so every member gets one response from every destination.
        """
        dst = frozenset(destinations)
        members = [self._message(dst, payload, payload_bytes) for payload in payloads]
        for member in members:
            self._track(member)
        self._send_batch(members)
        return members

    def _message(
        self, destinations: Iterable[GroupId], payload: Any, payload_bytes: int
    ) -> Message:
        """A fresh message named ``<client_id>-<n>``."""
        self._named += 1
        return Message.create(
            destinations=destinations,
            sender=self.client_id,
            payload=payload,
            payload_bytes=payload_bytes,
            msg_id=f"{self.client_id}-{self._named}",
        )

    def submit(self, message: Message) -> None:
        """Submit an already-built message to the protocol's entry group(s)."""
        self._track(message)
        self._dispatch(message)

    def _track(self, message: Message) -> MulticastCall:
        """Start tracking responses for ``message`` (submission time = now)."""
        call = MulticastCall(message=message, submitted_at=self._clock())
        self.inflight[message.msg_id] = call
        if self._tracer is not None:
            self._tracer.record(
                message.trace, STAGE_SUBMIT, call.submitted_at, self.client_id
            )
        return call

    def _dispatch(self, message: Message) -> None:
        """Ship ``message`` to its entry group(s) as one client request.

        Split out from :meth:`submit` so subclasses can change *when and in
        what envelope* a tracked message reaches the protocol — the batching
        client (:class:`repro.core.batching.BatchingClient`) buffers here.
        """
        self._send(message, ClientRequest(message=message))

    def _send_batch(self, members: List[Message]) -> Message:
        """Ship ``members`` in one carrier named ``<client_id>-b<n>``."""
        self._carriers += 1
        carrier = Message.batch_of(
            members, batch_id=f"{self.client_id}-b{self._carriers}"
        )
        self._send(carrier, FlexCastBatch(message=carrier))
        return carrier

    def _send(self, message: Message, request: ClientRequest) -> None:
        """Hand ``request`` to ``message``'s entry group(s)."""
        for entry in self._protocol.entry_groups(message):
            self._send_request(entry, request)

    # -------------------------------------------------------------- responses
    def on_response(self, group: GroupId, msg_id: str) -> Optional[MulticastCall]:
        """Record a delivery confirmation.

        Returns the completed :class:`MulticastCall` when the last destination
        responded, else ``None``.  Unknown message ids are ignored (they belong
        to calls already accounted for, e.g. duplicate confirmations).
        """
        call = self.inflight.get(msg_id)
        if call is None:
            return None
        if call.record_response(group, self._clock()):
            del self.inflight[msg_id]
            self.completed.append(call)
            return call
        return None

    @property
    def outstanding(self) -> int:
        return len(self.inflight)
