"""Asyncio TCP transport.

The paper's prototype runs over TCP between machines; this transport runs the
same protocol code over real sockets (typically on localhost for examples and
integration tests).  It implements the :class:`~repro.sim.transport.Transport`
interface, so :class:`~repro.core.flexcast.FlexCastGroup` and the baselines
are byte-for-byte the same classes used in the simulator.  Every destination
endpoint gets one persistent connection, one queue and one writer, which
makes the links FIFO and lets everything one event-loop turn sends to a peer
leave in one socket write.

Optionally, an artificial one-way delay can be injected per (source site,
destination site) pair using the same latency matrix as the simulator, turning
a localhost cluster into an emulated WAN — the same technique the paper uses
on CloudLab.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any, Callable, Deque, Dict, Hashable, List, Optional, Tuple

from ..sim.latencies import LatencyMatrix
from ..sim.transport import Transport
from .codec import encode_frame

#: Address book: node id -> (host, port).
AddressBook = Dict[Hashable, Tuple[str, int]]

#: What queues, connections and writers are keyed by — not the destination
#: id: many logical node ids can share one physical endpoint (e.g. thousands
#: of logical clients answering on one driver port), and they must share one
#: connection, not exhaust file descriptors.
Endpoint = Tuple[str, int]

#: Most bytes joined into one socket write (the frame that crosses the bound
#: still goes).  A catch-up reply queues hundreds of chunk frames in one call:
#: slicing keeps the joined copy small and a slow peer's back-pressure on its
#: own writer.  Not an option — a turn of ordinary frames is far below it.
_WRITE_SLICE_BYTES = 256 * 1024


class _Link:
    """Outbound state of one endpoint: its FIFO queue and the task writing it."""

    __slots__ = ("queue", "parked", "task", "connected_before")

    def __init__(self) -> None:
        # (due, frame) in send order; due is the loop.time() an injected WAN
        # delay holds the frame until, 0.0 without one.
        self.queue: Deque[Tuple[float, bytes]] = deque()
        # The future the writer waits on while the queue is empty.
        self.parked: Optional[asyncio.Future] = None
        self.task: Optional[asyncio.Task] = None
        self.connected_before = False


class AsyncioTransport(Transport):
    """Outbound half of a runtime node: FIFO links over pooled TCP.

    Per destination endpoint there is one persistent connection, one queue
    and one writer task, and nothing else writes to the socket.  :meth:`send`
    appends in call order, the writer empties the queue in queue order, TCP
    orders the bytes and the receiving :class:`~repro.runtime.node.FrameServer`
    loops over them: the "FIFO reliable point-to-point links" the paper
    assumes (§4.2).  The first ``send`` of an event-loop turn wakes the parked
    writer, which joins everything the turn queued into one write and drains
    once.  An injected WAN delay holds a frame *in the queue* until it is due,
    so delayed frames keep queue order too.

    Retry never duplicates.  A connection found closed *before* a batch is
    handed to it (evicted by the EOF watcher, or closing) is replaced and the
    batch written once on the fresh one; a write that fails after hand-over
    counts the whole batch as failed and is not re-sent — the loss of frames
    written just before a peer died is the asynchronous-model loss the
    protocols already tolerate.  A refused connect drops and counts what is
    queued: a dead peer costs one connect per burst, never a growing queue.

    A broadcast is encoded once: the *same object* sent to several
    destinations in a row reuses its frame, so payloads must be immutable
    (every envelope and SMR message is a frozen dataclass).  ``send`` runs on
    the event-loop thread.  ``pool`` is accepted for callers written when a
    one-connection-per-frame mode existed; ``True`` is the only value.
    """

    def __init__(
        self,
        node_id: Hashable,
        addresses: AddressBook,
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
        self._latencies = latencies
        self._sites = sites or {}
        self._links: Dict[Endpoint, _Link] = {}
        self._pool: Dict[Endpoint, asyncio.StreamWriter] = {}
        self._pool_watchers: Dict[Endpoint, asyncio.Task] = {}
        # The last payload sent and its frame ("encoded once" above); the
        # transport itself stands for "none yet", being nobody's payload.
        self._last_payload: Any = self
        self._last_frame = b""
        # Frames handed to a socket / dropped, socket writes, and connections
        # opened to an endpoint that had one before.
        self.sent_frames = 0
        self.failed_sends = 0
        self.writes = 0
        self.reconnects = 0

    # ------------------------------------------------------------- utilities
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

    @property
    def queued_frames(self) -> int:
        """Frames accepted by :meth:`send` and not yet handed to a socket."""
        return sum(len(link.queue) for link in self._links.values())

    # -------------------------------------------------------------- interface
    def send(self, dst: Hashable, payload: Any) -> None:
        """Fire-and-forget delivery of ``payload`` to ``dst``.

        Encodes, queues and returns; the endpoint's writer does the I/O.
        Failures (destination down) are counted but not raised, mirroring the
        asynchronous-system model in which message loss before GST is possible.
        """
        try:
            addr = self._addresses[dst]
        except KeyError:
            raise KeyError(f"unknown destination node {dst!r}") from None
        if payload is self._last_payload:
            frame = self._last_frame
        else:
            # Looked up as a module global on every call: the benchmark's
            # tracer patches the name.
            frame = encode_frame(self._node_id, payload)
            self._last_payload, self._last_frame = payload, frame
        link = self._links.get(addr)
        if link is None:
            link = self._links[addr] = _Link()
            link.task = asyncio.get_running_loop().create_task(
                self._write_queue(addr, link)
            )
        delay = self._delay_to(dst)
        due = asyncio.get_running_loop().time() + delay if delay > 0 else 0.0
        link.queue.append((due, frame))
        parked = link.parked
        if parked is not None:
            # Once per turn: later sends of the turn find the writer woken.
            link.parked = None
            parked.set_result(None)

    # ----------------------------------------------------------------- writer
    async def _write_queue(self, addr: Endpoint, link: _Link) -> None:
        """The only writer of ``addr``'s socket, for the life of the link."""
        loop = asyncio.get_running_loop()
        queue = link.queue
        while True:
            if not queue:
                link.parked = loop.create_future()
                await link.parked
                continue
            now = loop.time()
            if queue[0][0] > now:
                await asyncio.sleep(queue[0][0] - now)
                continue
            writer = self._pool.get(addr)
            if writer is None or writer.is_closing():
                # Nothing of this batch was handed over, so a fresh
                # connection cannot show the peer a frame twice.
                if writer is not None:
                    await self._evict(addr, writer)
                if not await self._connect(addr, link):
                    self.failed_sends += len(queue)
                    queue.clear()
                continue  # the queue grew, or emptied, while connecting
            count = self._hand_over(writer, queue, now)
            try:
                await writer.drain()
            except OSError:
                # Died after hand-over: the peer may have read any prefix,
                # so nothing is re-sent.
                self.sent_frames -= count
                self.failed_sends += count
                await self._evict(addr, writer)

    def _hand_over(self, writer: asyncio.StreamWriter, queue: Deque, now: float) -> int:
        """Pop the due head of ``queue``, up to the slice bound, into one write."""
        batch: List[bytes] = []
        size = 0
        while queue and size < _WRITE_SLICE_BYTES and queue[0][0] <= now:
            batch.append(queue.popleft()[1])
            size += len(batch[-1])
        writer.write(b"".join(batch))
        self.writes += 1
        # Counted here, not after the drain, so that a writer cancelled
        # mid-drain (aclose) leaves the books right.
        self.sent_frames += len(batch)
        return len(batch)

    async def _connect(self, addr: Endpoint, link: _Link) -> bool:
        try:
            reader, writer = await asyncio.open_connection(*addr)
        except OSError:
            return False
        self.reconnects += link.connected_before
        link.connected_before = True
        self._pool[addr] = writer
        # The peer never writes back on this pipe, so any read completing
        # means EOF/reset: evict the stale socket now rather than on the next
        # write's failure (which TCP often surfaces one write too late,
        # losing a batch).
        self._pool_watchers[addr] = asyncio.get_running_loop().create_task(
            self._watch_eof(addr, reader, writer)
        )
        return True

    async def _evict(self, addr: Endpoint, writer: asyncio.StreamWriter) -> None:
        if self._pool.get(addr) is writer:
            del self._pool[addr]
        watcher = self._pool_watchers.pop(addr, None)
        if watcher is not None and watcher is not asyncio.current_task():
            watcher.cancel()
        await self._close_writer(writer)

    async def _watch_eof(
        self,
        addr: Endpoint,
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
        await self._evict(addr, writer)

    @staticmethod
    async def _close_writer(writer: asyncio.StreamWriter) -> None:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:  # pragma: no cover - platform dependent
            pass

    async def aclose(self) -> None:
        """Flush to the connections that are open, then close everything.

        Nothing connects here and no injected delay is waited for: what is
        queued for an endpoint without an open connection is dropped and
        counted.  No writer, watcher or socket outlives the call; a later
        ``send`` starts over.
        """
        links, self._links = self._links, {}
        watchers, self._pool_watchers = self._pool_watchers, {}
        writers, self._pool = self._pool, {}
        tasks = [link.task for link in links.values()] + list(watchers.values())
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        for addr, link in links.items():
            writer = writers.get(addr)
            if writer is None or writer.is_closing():
                self.failed_sends += len(link.queue)
                continue
            while link.queue:
                self._hand_over(writer, link.queue, float("inf"))
        for writer in writers.values():
            await self._close_writer(writer)  # flushes what it was handed

    def now(self) -> float:
        """Wall-clock milliseconds (monotonic), matching the simulator's unit."""
        return asyncio.get_running_loop().time() * 1000.0

    def schedule(self, delay_ms: float, callback: Callable[[], None]):
        return asyncio.get_running_loop().call_later(delay_ms / 1000.0, callback)
