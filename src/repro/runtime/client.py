"""Asyncio multicast client."""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Hashable, Iterable, List, Tuple

from ..core.message import ClientRequest, ClientResponse, FlexCastBatch, Message
from ..overlay.base import GroupId
from ..protocols.base import AtomicMulticastProtocol
from .node import FrameServer
from .transport import AddressBook, AsyncioTransport


class AsyncMulticastClient(FrameServer):
    """A client that multicasts messages over TCP and awaits all responses.

    The client is a tiny frame server of its own so groups can push delivery
    confirmations back to it (the same shape as the paper's evaluation, where
    "upon delivering a message, each message destination replies to the
    message's sender").
    """

    def __init__(
        self,
        client_id: str,
        protocol: AtomicMulticastProtocol,
        addresses: AddressBook,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        super().__init__(host=host, port=port)
        self.client_id = client_id
        self._protocol = protocol
        self.transport = AsyncioTransport(node_id=client_id, addresses=addresses)
        #: msg_id -> (expected destination count, responses received, done event)
        self._waiting: Dict[str, Tuple[int, Dict[GroupId, float], asyncio.Event]] = {}
        self._loop = asyncio.get_event_loop()

    async def start(self) -> Tuple[str, int]:
        host, port = await super().start()
        self.transport.register_address(self.client_id, host, port)
        return host, port

    def handle_frame(self, sender: Hashable, envelope: Any) -> None:
        if isinstance(envelope, ClientResponse):
            self._on_response(envelope)

    def _on_response(self, response: ClientResponse) -> None:
        waiting = self._waiting.get(response.msg_id)
        if waiting is None:
            return
        expected, responses, done = waiting
        responses.setdefault(response.group, self._loop.time() * 1000.0)
        if len(responses) >= expected:
            done.set()

    async def _send_and_await(
        self,
        messages: List[Message],
        request: ClientRequest,
        route_by: Message,
        timeout: float,
    ) -> Dict[str, Dict[GroupId, float]]:
        """Register waiting slots for ``messages``, ship one ``request`` to
        ``route_by``'s entry group(s), await every per-destination response.

        Shared tail of :meth:`multicast` and :meth:`multicast_batch`.
        Returns ``{msg_id: {group: latency_ms}}``; waiting slots are cleaned
        up on success *and* on timeout.
        """
        started = self._loop.time() * 1000.0
        done_events: List[asyncio.Event] = []
        all_responses: Dict[str, Dict[GroupId, float]] = {}
        for message in messages:
            done = asyncio.Event()
            responses: Dict[GroupId, float] = {}
            self._waiting[message.msg_id] = (len(message.dst), responses, done)
            done_events.append(done)
            all_responses[message.msg_id] = responses
        try:
            for entry in self._protocol.entry_groups(route_by):
                self.transport.send(entry, request)
            await asyncio.wait_for(
                asyncio.gather(*(done.wait() for done in done_events)),
                timeout=timeout,
            )
        finally:
            for message in messages:
                self._waiting.pop(message.msg_id, None)
        return {
            msg_id: {group: at - started for group, at in responses.items()}
            for msg_id, responses in all_responses.items()
        }

    # ----------------------------------------------------------------- public
    async def multicast(
        self,
        destinations: Iterable[GroupId],
        payload=None,
        timeout: float = 10.0,
    ) -> Dict[GroupId, float]:
        """Multicast a message and wait until every destination delivered it.

        Returns the per-group response latencies in milliseconds.  Raises
        ``asyncio.TimeoutError`` if some destination does not respond in time.
        """
        message = Message.create(
            destinations=destinations, sender=self.client_id, payload=payload
        )
        latencies = await self._send_and_await(
            [message], ClientRequest(message=message), message, timeout
        )
        return latencies[message.msg_id]

    async def multicast_batch(
        self,
        destinations: Iterable[GroupId],
        payloads: Iterable,
        timeout: float = 10.0,
    ) -> Dict[str, Dict[GroupId, float]]:
        """Multicast ``payloads`` as one batch and await every response.

        The payloads share one destination set and travel the wire as a
        single :class:`~repro.core.message.FlexCastBatch` frame; the lca
        orders the batch as one unit and each destination fans it out into
        per-member deliveries, so — exactly as with :meth:`multicast` —
        every member message gets one response from every destination.
        Returns ``{msg_id: {group: latency_ms}}`` in payload order.  Raises
        ``asyncio.TimeoutError`` if some response does not arrive in time.
        """
        dst = frozenset(destinations)
        messages: List[Message] = [
            Message.create(destinations=dst, sender=self.client_id, payload=payload)
            for payload in payloads
        ]
        carrier = Message.batch_of(messages)
        return await self._send_and_await(
            messages, FlexCastBatch(message=carrier), carrier, timeout
        )
