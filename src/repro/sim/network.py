"""Simulated wide-area network with FIFO reliable channels.

The paper's deployment connects groups (one per AWS region) and clients over
TCP with emulated inter-region latencies.  This module reproduces that
substrate inside the discrete-event simulator:

* every *node* (a protocol group or a client) is registered at a *site*
  (region index into the :class:`~repro.sim.latencies.LatencyMatrix`);
* :meth:`Network.send` delivers a payload to the destination node after the
  one-way latency between the two sites (plus optional jitter);
* channels are FIFO and reliable, exactly as the paper assumes (§4.2 requires
  FIFO reliable point-to-point links between groups);
* per-node traffic counters record the number of messages and bytes sent and
  received, which is the raw material for Figure 8 (traffic per node) and for
  the communication-overhead analysis (Figures 1 and 9).

The network owns the deployment for the length of a run: it reaches every
node through its handler, and every node reaches it back through its
transport.  :meth:`Network.close` ends the run by dropping the nodes, their
handlers, the observers and the drop filter; the traffic counters stay
readable.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

from .events import EventLoop
from .latencies import LatencyMatrix

NodeId = Hashable
MessageHandler = Callable[[NodeId, Any], None]


def payload_size(payload: Any) -> int:
    """Best-effort serialized size (bytes) of a payload.

    Protocol envelopes implement ``size_bytes()``; anything else falls back to
    the length of its ``repr``, which is adequate for tests and toy payloads.
    """
    size_fn = getattr(payload, "size_bytes", None)
    if callable(size_fn):
        return int(size_fn())
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    return len(repr(payload))


@dataclass
class NodeTraffic:
    """Cumulative traffic counters for one node."""

    messages_sent: int = 0
    bytes_sent: int = 0
    messages_received: int = 0
    bytes_received: int = 0
    #: messages received broken down by payload kind (e.g. "msg", "ack").
    received_by_kind: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    bytes_received_by_kind: Dict[str, int] = field(default_factory=lambda: defaultdict(int))

    def average_received_size(self) -> float:
        """Average size in bytes of received messages (0 if none)."""
        if self.messages_received == 0:
            return 0.0
        return self.bytes_received / self.messages_received


class _Node:
    __slots__ = ("node_id", "site", "handler")

    def __init__(self, node_id: NodeId, site: int, handler: MessageHandler) -> None:
        self.node_id = node_id
        self.site = site
        self.handler = handler


class Network:
    """Latency-matrix network over a discrete-event loop.

    Parameters
    ----------
    loop:
        The event loop driving the simulation.
    latencies:
        One-way latency matrix between sites.
    jitter_ms:
        Maximum uniform jitter added to each delivery (default 0 for fully
        deterministic latencies).  FIFO ordering per channel is preserved even
        with jitter: a message is never delivered before a message previously
        sent on the same (src, dst) channel.
    seed:
        Seed for the jitter RNG.
    """

    def __init__(
        self,
        loop: EventLoop,
        latencies: LatencyMatrix,
        jitter_ms: float = 0.0,
        seed: int = 0,
    ) -> None:
        self._loop = loop
        self._latencies = latencies
        self._jitter = float(jitter_ms)
        self._rng = random.Random(seed)
        self._nodes: Dict[NodeId, _Node] = {}
        self._crashed: set = set()
        self._traffic: Dict[NodeId, NodeTraffic] = defaultdict(NodeTraffic)
        # Last scheduled delivery time per channel, used to enforce FIFO when
        # jitter would otherwise reorder messages.
        self._channel_clock: Dict[Tuple[NodeId, NodeId], float] = {}
        self._total_messages = 0
        self._drop_filter: Optional[Callable[[NodeId, NodeId, Any], bool]] = None
        # Delivery observers: called as fn(time, src, dst, payload) after a
        # payload is handed to its destination.  Used for trace capture by the
        # fuzz harness and the latency collector; observers must not mutate
        # the payload.
        self._delivery_observers: list = []

    # ---------------------------------------------------------- registration
    @property
    def loop(self) -> EventLoop:
        return self._loop

    @property
    def latencies(self) -> LatencyMatrix:
        return self._latencies

    def register(self, node_id: NodeId, site: int, handler: MessageHandler) -> None:
        """Register a node at ``site`` with a message handler.

        The handler is called as ``handler(sender_id, payload)`` when a
        message is delivered.
        """
        if node_id in self._nodes:
            raise ValueError(f"node {node_id!r} already registered")
        if not 0 <= site < self._latencies.num_sites:
            raise ValueError(f"site {site} out of range")
        self._nodes[node_id] = _Node(node_id, site, handler)
        self._crashed.discard(node_id)

    def unregister(self, node_id: NodeId) -> None:
        """Crash a node: in-flight and future messages to it are silently lost."""
        if self._nodes.pop(node_id, None) is not None:
            self._crashed.add(node_id)

    def is_registered(self, node_id: NodeId) -> bool:
        return node_id in self._nodes

    def close(self) -> None:
        """End the run: drop every node with its handler, every observer and
        the drop filter.  Sending afterwards raises ``KeyError``."""
        self._nodes.clear()
        self._delivery_observers.clear()
        self._drop_filter = None

    # ------------------------------------------------------------- messaging
    def set_drop_filter(
        self, drop: Optional[Callable[[NodeId, NodeId, Any], bool]]
    ) -> None:
        """Install a fault-injection hook.

        ``drop(src, dst, payload)`` returning True drops the message.  Used by
        tests that exercise the SMR substrate and the checker; the atomic
        multicast protocols themselves assume reliable channels.
        """
        self._drop_filter = drop

    def add_delivery_observer(
        self, observer: Callable[[float, NodeId, NodeId, Any], None]
    ) -> None:
        """Register a read-only observer of every delivered payload."""
        self._delivery_observers.append(observer)

    def send(self, src: NodeId, dst: NodeId, payload: Any) -> float:
        """Send ``payload`` from ``src`` to ``dst``.

        Returns the virtual time at which delivery is scheduled.  Raises
        ``KeyError`` if either endpoint is unknown.
        """
        src_node = self._nodes[src]
        size = payload_size(payload)
        src_stats = self._traffic[src]

        if dst not in self._nodes:
            if dst in self._crashed:
                # Sending to a crashed node is legal; the message is simply lost.
                src_stats.messages_sent += 1
                src_stats.bytes_sent += size
                return self._loop.now
            raise KeyError(f"unknown destination node {dst!r}")
        dst_node = self._nodes[dst]

        src_stats.messages_sent += 1
        src_stats.bytes_sent += size

        if self._drop_filter is not None and self._drop_filter(src, dst, payload):
            return self._loop.now

        delay = self._latencies.latency(src_node.site, dst_node.site)
        if self._jitter > 0.0:
            delay += self._rng.uniform(0.0, self._jitter)

        deliver_at = self._loop.now + delay
        channel = (src, dst)
        previous = self._channel_clock.get(channel, 0.0)
        if deliver_at < previous:
            deliver_at = previous  # preserve FIFO under jitter
        self._channel_clock[channel] = deliver_at

        self._total_messages += 1
        self._loop.schedule_at(
            deliver_at, lambda: self._deliver(src, dst, payload, size)
        )
        return deliver_at

    def _deliver(self, src: NodeId, dst: NodeId, payload: Any, size: int) -> None:
        node = self._nodes.get(dst)
        if node is None:
            return  # destination departed (crash injection)
        stats = self._traffic[dst]
        stats.messages_received += 1
        stats.bytes_received += size
        kind = getattr(payload, "kind", None)
        if kind is not None:
            stats.received_by_kind[str(kind)] += 1
            stats.bytes_received_by_kind[str(kind)] += size
        node.handler(src, payload)
        for observer in self._delivery_observers:
            observer(self._loop.now, src, dst, payload)

    # -------------------------------------------------------------- statistics
    def traffic(self, node_id: NodeId) -> NodeTraffic:
        """Traffic counters for a node (zeros if it never communicated)."""
        return self._traffic[node_id]

    @property
    def total_messages(self) -> int:
        """Total messages ever sent through the network."""
        return self._total_messages

    def reset_traffic(self) -> None:
        """Zero all traffic counters (used to discard warm-up traffic)."""
        self._traffic = defaultdict(NodeTraffic)
