"""The asyncio front of :class:`~repro.core.client.MulticastClient`."""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Hashable, Iterable, List, Tuple

from ..core.client import MulticastClient
from ..core.message import ClientResponse, Message, NodeHello
from ..overlay.base import GroupId
from ..protocols.base import AtomicMulticastProtocol
from .node import FrameServer
from .transport import AddressBook, AsyncioTransport

Latencies = Dict[GroupId, float]


class AsyncMulticastClient(FrameServer):
    """Multicasts over TCP and awaits every destination's response.

    :attr:`client` names, tracks and completes every message; the front
    awaits the calls it issued and drops each from :attr:`client` once it
    completed or timed out.  Groups answer on the front's own port (in the
    paper's evaluation, "each message destination replies to the message's
    sender").
    """

    def __init__(self, client_id: str, protocol: AtomicMulticastProtocol,
                 addresses: AddressBook, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        super().__init__(host=host, port=port)
        self.client_id = client_id
        self._addresses = addresses
        self.transport = AsyncioTransport(node_id=client_id, addresses=addresses)
        self.client = MulticastClient(
            client_id, protocol, self.transport.send, self.transport.now
        )
        #: msg_id -> the future its awaited call completes.
        self._waiters: Dict[str, asyncio.Future] = {}

    async def start(self) -> Tuple[str, int]:
        """Listen, and announce the port with a ``NodeHello`` to every
        endpoint of the address book, so any replica can answer."""
        host, port = await super().start()
        hello = NodeHello(node_id=self.client_id, host=host, port=port)
        endpoints = {address: node for node, address in self._addresses.items()}
        for node in endpoints.values():
            self.transport.send(node, hello)
        await asyncio.sleep(0.05)  # the hellos land before any response
        return host, port

    def handle_frame(self, sender: Hashable, envelope: Any) -> None:
        if not isinstance(envelope, ClientResponse):
            return
        call = self.client.on_response(envelope.group, envelope.msg_id)
        if call is not None and envelope.msg_id in self._waiters:
            self.client.completed.pop()  # ``call``, appended just now
            waiter = self._waiters.pop(envelope.msg_id)
            if not waiter.done():  # a timed-out wait may be cancelling it
                waiter.set_result(call)

    async def _await(self, messages: List[Message],
                     timeout: float) -> Dict[str, Latencies]:
        loop = asyncio.get_running_loop()
        for message in messages:
            self._waiters[message.msg_id] = loop.create_future()
        try:
            calls = await asyncio.wait_for(
                asyncio.gather(*(self._waiters[m.msg_id] for m in messages)), timeout
            )
        finally:
            for message in messages:
                if self._waiters.pop(message.msg_id, None) is not None:
                    self.client.inflight.pop(message.msg_id, None)
        return {
            c.message.msg_id: {g: at - c.submitted_at for g, at in c.responses.items()}
            for c in calls
        }

    async def multicast(self, destinations: Iterable[GroupId], payload: Any = None,
                        timeout: float = 10.0) -> Latencies:
        """Multicast a message; returns each destination's response latency
        in ms.  Raises ``asyncio.TimeoutError`` if one does not come in time."""
        message = self.client.multicast(destinations, payload)
        return (await self._await([message], timeout))[message.msg_id]

    async def multicast_batch(self, destinations: Iterable[GroupId],
                              payloads: Iterable[Any],
                              timeout: float = 10.0) -> Dict[str, Latencies]:
        """Multicast ``payloads`` in one carrier (see
        :meth:`MulticastClient.multicast_batch`) and await every response, as
        ``{msg_id: latencies}`` in payload order."""
        members = self.client.multicast_batch(destinations, payloads)
        return await self._await(members, timeout)
