"""Asyncio/TCP runtime: the same protocols over real sockets.

What lives here: the deployment surface for running any protocol from this
repo outside the simulator.  The main entry points are :class:`LocalCluster`
(one TCP :class:`GroupServer` per group on localhost, optionally with
emulated WAN latencies) and :class:`AsyncMulticastClient` (submit
multicasts — single or batched via ``multicast_batch`` — and await every
destination's response).  Frames are length-prefixed JSON whose shape one
schema table decides for both directions (:mod:`~repro.runtime.codec`);
:class:`FrameServer` is the one front end that reads them (every server
and client here subclasses it); :class:`AsyncioTransport` adapts the
protocol-facing :class:`~repro.sim.transport.Transport` interface to one
persistent connection per peer — the FIFO links the paper assumes — so the
protocol classes themselves are byte-for-byte the ones the simulator runs.

For deployments beyond one process, :class:`ProcessCluster`
(:mod:`~repro.runtime.proc`) supervises N groups × M replicas as separate
OS processes with per-replica WAL durability and an HTTP admin plane —
see ``docs/OPERATIONS.md``.
"""

from .client import AsyncMulticastClient
from .cluster import LocalCluster
from .codec import CodecError, decode_frame, encode_frame, read_frame
from .node import FrameServer, GroupServer
from .proc import ClusterSpec, ProcessCluster, ReplicaServer
from .transport import AddressBook, AsyncioTransport

__all__ = [
    "AsyncMulticastClient",
    "LocalCluster",
    "ClusterSpec",
    "ProcessCluster",
    "ReplicaServer",
    "FrameServer",
    "CodecError",
    "decode_frame",
    "encode_frame",
    "read_frame",
    "GroupServer",
    "AddressBook",
    "AsyncioTransport",
]
