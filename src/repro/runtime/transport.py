"""Asyncio TCP transport.

The paper's prototype runs over TCP between machines; this transport runs the
same protocol code over real sockets (typically on localhost for examples and
integration tests).  It implements the :class:`~repro.sim.transport.Transport`
interface, so :class:`~repro.core.flexcast.FlexCastGroup` and the baselines
are byte-for-byte the same classes used in the simulator.  Every destination
gets one persistent connection, which makes the links FIFO.

Optionally, an artificial one-way delay can be injected per (source site,
destination site) pair using the same latency matrix as the simulator, turning
a localhost cluster into an emulated WAN — the same technique the paper uses
on CloudLab.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

from ..sim.latencies import LatencyMatrix
from ..sim.transport import Transport
from .codec import encode_frame

#: Address book: node id -> (host, port).
AddressBook = Dict[Hashable, Tuple[str, int]]


class AsyncioTransport(Transport):
    """Outbound half of a runtime node: FIFO links over pooled TCP.

    The transport keeps one persistent connection per destination endpoint
    and writes frames down it under a per-endpoint lock (the receiving
    :class:`~repro.runtime.node.FrameServer` loops over frames on one
    connection).  Sends to one destination therefore arrive in send order —
    the "FIFO reliable point-to-point links" the paper assumes (§4.2): each
    ``send`` becomes a task in call order, ``asyncio.Lock`` wakes waiters in
    arrival order, and TCP orders the bytes of one connection.  A stale
    connection — the peer restarted, or an idle socket was reset — is dropped
    and the send retried once on a fresh one before it counts as failed;
    a frame written just before the peer died can still be lost, which is
    the asynchronous-model loss the protocols already tolerate.

    ``pool`` is accepted for callers written when a one-connection-per-frame
    mode existed; ``True`` is the only value and selects nothing.
    """

    def __init__(
        self,
        node_id: Hashable,
        addresses: AddressBook,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        latencies: Optional[LatencyMatrix] = None,
        sites: Optional[Dict[Hashable, int]] = None,
        pool: bool = True,
    ) -> None:
        if pool is not True:
            raise ValueError("AsyncioTransport has one connection mode (pooled)")
        self._node_id = node_id
        # Kept by reference on purpose: the cluster's address book is shared so
        # nodes learn about peers/clients that join after this transport is built.
        self._addresses = addresses
        self._loop = loop
        self._latencies = latencies
        self._sites = sites or {}
        # Keyed by (host, port), not by destination id: many logical node
        # ids can share one physical endpoint (e.g. thousands of simulated
        # soak clients answering on one driver port), and they must share
        # one connection, not exhaust file descriptors.
        self._pool: Dict[Tuple[str, int], asyncio.StreamWriter] = {}
        self._pool_locks: Dict[Tuple[str, int], asyncio.Lock] = {}
        self._pool_watchers: Dict[Tuple[str, int], asyncio.Task] = {}
        self.sent_frames = 0
        self.failed_sends = 0

    # ------------------------------------------------------------- utilities
    def _event_loop(self) -> asyncio.AbstractEventLoop:
        return self._loop or asyncio.get_event_loop()

    def register_address(self, node_id: Hashable, host: str, port: int) -> None:
        self._addresses[node_id] = (host, port)

    def _delay_to(self, dst: Hashable) -> float:
        """Injected one-way delay in seconds (0 when no latency matrix is set)."""
        if self._latencies is None:
            return 0.0
        src_site = self._sites.get(self._node_id)
        dst_site = self._sites.get(dst)
        if src_site is None or dst_site is None:
            return 0.0
        return self._latencies.latency(src_site, dst_site) / 1000.0

    # -------------------------------------------------------------- interface
    def send(self, dst: Hashable, payload: Any) -> None:
        """Fire-and-forget delivery of ``payload`` to ``dst``.

        Scheduling is done on the running asyncio loop; failures (destination
        down) are counted but not raised, mirroring the asynchronous-system
        model in which message loss before GST is possible.
        """
        if dst not in self._addresses:
            raise KeyError(f"unknown destination node {dst!r}")
        frame = encode_frame(self._node_id, payload)
        delay = self._delay_to(dst)
        loop = self._event_loop()
        loop.call_soon_threadsafe(
            lambda: loop.create_task(self._deliver(dst, frame, delay))
        )

    async def _deliver(self, dst: Hashable, frame: bytes, delay: float) -> None:
        if delay > 0:
            await asyncio.sleep(delay)
        # One frame in flight per endpoint: the lock keeps interleaved
        # sends from corrupting the stream, and serialises the open/retry
        # dance so two racing sends cannot both open a connection.
        addr = self._addresses[dst]
        lock = self._pool_locks.setdefault(addr, asyncio.Lock())
        async with lock:
            for attempt in (0, 1):
                writer = self._pool.get(addr)
                if writer is None:
                    try:
                        reader, writer = await asyncio.open_connection(*addr)
                    except OSError:
                        self.failed_sends += 1
                        return
                    self._pool[addr] = writer
                    # The peer never writes back on this pipe, so any read
                    # completing means EOF/reset: evict the stale socket now
                    # rather than on the next send's write failure (which TCP
                    # often surfaces one write too late, losing a frame).
                    self._pool_watchers[addr] = asyncio.get_running_loop().create_task(
                        self._watch_eof(addr, reader, writer)
                    )
                try:
                    writer.write(frame)
                    await writer.drain()
                    self.sent_frames += 1
                    return
                except (OSError, ConnectionError):
                    # Stale connection (peer restarted / idle reset): drop it
                    # and retry once on a fresh one.
                    self._evict(addr, writer)
                    await self._close_writer(writer)
                    if attempt == 1:
                        self.failed_sends += 1

    def _evict(self, addr: Tuple[str, int], writer: asyncio.StreamWriter) -> None:
        if self._pool.get(addr) is writer:
            del self._pool[addr]
        watcher = self._pool_watchers.pop(addr, None)
        if watcher is not None and watcher is not asyncio.current_task():
            watcher.cancel()

    async def _watch_eof(
        self,
        addr: Tuple[str, int],
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while await reader.read(65536):
                pass  # inbound bytes on an outbound pipe are ignored
        except OSError:
            pass
        except asyncio.CancelledError:
            return
        self._evict(addr, writer)
        await self._close_writer(writer)

    @staticmethod
    async def _close_writer(writer: asyncio.StreamWriter) -> None:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:  # pragma: no cover - platform dependent
            pass

    async def aclose(self) -> None:
        """Close every pooled connection (a later send reopens its own)."""
        watchers, self._pool_watchers = list(self._pool_watchers.values()), {}
        for watcher in watchers:
            watcher.cancel()
        writers, self._pool = list(self._pool.values()), {}
        for writer in writers:
            await self._close_writer(writer)

    def now(self) -> float:
        """Wall-clock milliseconds (monotonic), matching the simulator's unit."""
        return self._event_loop().time() * 1000.0

    def schedule(self, delay_ms: float, callback: Callable[[], None]):
        handle = self._event_loop().call_later(delay_ms / 1000.0, callback)

        class _Handle:
            def cancel(self_inner) -> None:
                handle.cancel()

        return _Handle()
