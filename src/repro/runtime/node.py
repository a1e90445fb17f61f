"""The frame server every listener of the runtime shares.

:class:`FrameServer` is the only reader of wire frames in the runtime: the
replica server (:class:`~repro.runtime.proc.ReplicaServer`) and the
multicast client are its subclasses.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Hashable, Optional, Tuple

from ..core.message import ClientResponse, Message, NodeHello
from ..obs import Observability
from ..overlay.base import GroupId
from .codec import CodecError, read_frame
from .transport import AsyncioTransport

#: First bytes of an HTTP GET.  As a frame length prefix this would claim a
#: ~1.2 GB frame — far above ``MAX_FRAME_BYTES`` — so no legitimate frame
#: traffic can collide with the scrape detection.
_HTTP_GET = b"GET "

#: An HTTP response triple: (status line, body, content type).
HttpResponse = Tuple[bytes, bytes, bytes]


class FrameServer:
    """The runtime's one TCP front end: length-prefixed frames + HTTP on one port.

    Everything that listens — :class:`~repro.runtime.proc.ReplicaServer`
    (one per *replica*) and the multicast client — is a subclass, so frames
    are read in exactly one place.  A port accepts two kinds of traffic:

    * wire frames (:mod:`repro.runtime.codec`), fed to :meth:`handle_frame`
      one by one for as long as the peer keeps the connection open; and
    * plain HTTP ``GET`` requests, answered by :meth:`handle_http` —
      ``/metrics`` scrapes, readiness probes, and (for a replica) the
      supervisor's admin plane.

    The first four bytes of every connection decide which it is.

    A subclass that also sends sets :attr:`transport`; the base then
    registers :class:`~repro.core.message.NodeHello` announcements in it,
    answers delivered messages' senders through it (:meth:`_sink`) and
    closes it on :meth:`stop`.  One that is observed calls
    :meth:`_register_metrics`, which also turns on ``/metrics``.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.host = host
        self.port = port
        self.frames_received = 0
        #: Messages handed to :meth:`_sink` since start.
        self.reported_deliveries = 0
        self.transport: Optional[AsyncioTransport] = None
        self.obs: Optional[Observability] = None
        self._server: Optional[asyncio.AbstractServer] = None
        # Established connections (pooled transports hold theirs open for the
        # server's whole life); stop() must close them or handlers linger.
        self._conn_writers: set = set()

    # --------------------------------------------------------------- lifecycle
    async def start(self) -> Tuple[str, int]:
        """Start listening; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._conn_writers):
            writer.close()
        self._conn_writers.clear()
        if self.transport is not None:
            await self.transport.aclose()

    # ------------------------------------------------------------------ hooks
    def handle_frame(self, sender: Hashable, envelope: Any) -> None:
        """Process one decoded wire frame (override)."""
        raise NotImplementedError

    def handle_http(self, path: str) -> HttpResponse:
        """Answer one HTTP GET for ``path`` (override for extra endpoints).

        ``path`` includes any query string; the base class serves ``/ready``
        (200 once the server listens — by construction, if this runs the
        socket is accepting) and, once :meth:`_register_metrics` attached a
        hub, ``/metrics`` in Prometheus text exposition format.
        """
        route = path.split("?", 1)[0]
        if route == "/ready":
            return b"200 OK", b"ready\n", b"text/plain; charset=utf-8"
        if route == "/metrics" and self.obs is not None:
            return (
                b"200 OK",
                self.obs.registry.render_prometheus().encode("utf-8"),
                b"text/plain; version=0.0.4; charset=utf-8",
            )
        return (
            b"404 Not Found",
            b"not found (for /metrics: is observability attached?)\n",
            b"text/plain; charset=utf-8",
        )

    # ----------------------------------------------------------- shared duties
    def _register_metrics(self, obs: Observability, labels: Dict[str, str]) -> None:
        """Expose the two ``server_*`` series — and, for a server that also
        sends, the five ``transport_*`` ones — on ``obs``; serve ``/metrics``."""
        self.obs = obs
        obs.registry.counter(
            "server_frames_received_total",
            "Wire frames accepted by this server.",
            labels,
            fn=lambda: self.frames_received,
        )
        obs.registry.gauge(
            "server_delivered",
            "Messages this server delivered and answered for since start.",
            labels,
            fn=lambda: self.reported_deliveries,
        )
        transport = self.transport
        if transport is None:
            return
        # Pull-based: the send path pays the integer increments and no more.
        for name, help_text, fn in (
            ("transport_frames_sent_total",
             "Wire frames handed to a socket.",
             lambda: transport.sent_frames),
            ("transport_writes_total",
             "Socket writes; frames sent / writes is the coalescing factor.",
             lambda: transport.writes),
            ("transport_failed_sends_total",
             "Frames dropped: peer unreachable, or connection lost mid-write.",
             lambda: transport.failed_sends),
            ("transport_reconnects_total",
             "Connections opened to an endpoint that had one before.",
             lambda: transport.reconnects),
        ):
            obs.registry.counter(name, help_text, labels, fn=fn)
        obs.registry.gauge(
            "transport_queued_frames",
            "Frames queued and not yet handed to a socket.",
            labels,
            fn=lambda: transport.queued_frames,
        )

    def _sink(self, group_id: GroupId, message: Message) -> None:
        """Delivery sink: count the message and answer its sender, if the
        address book knows how to reach it."""
        self.reported_deliveries += 1
        try:
            self.transport.send(
                message.sender, ClientResponse(message.msg_id, group_id)
            )
        except KeyError:
            pass

    # ------------------------------------------------------------ connections
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._conn_writers.add(writer)
        try:
            # Peek at the first 4 bytes: an HTTP GET (scrape/probe/admin) or
            # the length prefix of the first frame.
            # A peer that resets the connection has gone as surely as one
            # that closed it: a reset is read as end of stream.
            try:
                probe = await reader.readexactly(len(_HTTP_GET))
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            if probe == _HTTP_GET:
                await self._serve_http(reader, writer)
                return
            preread = probe
            while True:
                try:
                    sender, envelope = await read_frame(reader, preread=preread)
                except (asyncio.IncompleteReadError, ConnectionError, CodecError):
                    break
                preread = b""
                self.frames_received += 1
                if isinstance(envelope, NodeHello) and self.transport is not None:
                    # Transport-level address announcement (a late-joining
                    # client): register and drop — it must never reach a
                    # protocol or be ordered through a log.
                    self.transport.register_address(
                        envelope.node_id, envelope.host, envelope.port
                    )
                else:
                    self.handle_frame(sender, envelope)
        finally:
            self._conn_writers.discard(writer)
            writer.close()

    async def _serve_http(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        """Answer one HTTP request and close.

        Minimal by design: HTTP/1.0 semantics, no keep-alive — enough for
        ``curl``, a Prometheus scraper, and the process supervisor.
        """
        request = _HTTP_GET  # the probe already consumed these bytes
        try:
            while b"\r\n\r\n" not in request and len(request) < 65536:
                chunk = await asyncio.wait_for(reader.read(1024), timeout=5.0)
                if not chunk:
                    break
                request += chunk
        except asyncio.TimeoutError:
            pass
        except ConnectionError:  # reset: nobody is left to answer
            return
        parts = request.split(b"\r\n", 1)[0].split(b" ")
        path = parts[1].decode("latin-1", "replace") if len(parts) >= 2 else "/"
        status, body, ctype = self.handle_http(path)
        writer.write(
            b"HTTP/1.0 " + status + b"\r\nContent-Type: " + ctype
            + b"\r\nContent-Length: " + str(len(body)).encode("ascii")
            + b"\r\nConnection: close\r\n\r\n" + body
        )
        await writer.drain()


async def _http_get(
    host: str, port: int, path: str, timeout: float = 5.0
) -> Tuple[int, bytes]:
    """The client side of :meth:`FrameServer._serve_http`: one HTTP/1.0 GET,
    returning ``(status, body)``."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"GET {path} HTTP/1.0\r\nHost: {host}\r\n\r\n".encode("ascii")
        )
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(-1), timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:  # pragma: no cover - platform dependent
            pass
    head, _, body = raw.partition(b"\r\n\r\n")
    status_parts = head.split(b"\r\n", 1)[0].split(b" ")
    status = int(status_parts[1]) if len(status_parts) >= 2 else 0
    return status, body
