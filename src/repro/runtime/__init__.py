"""Asyncio/TCP runtime: FlexCast's replicated groups over real sockets.

What lives here: the deployment surface for running FlexCast outside the
simulator.  :class:`ProcessCluster` (:mod:`~repro.runtime.proc`) supervises
N groups × M replicas as separate OS processes, each a
:class:`ReplicaServer` with per-replica WAL durability and an HTTP admin
plane (see ``docs/OPERATIONS.md``); a test hosts the same servers in one
event loop from a :class:`ClusterSpec`, whose optional latency matrix
emulates a WAN.  :class:`AsyncMulticastClient` submits multicasts — single
or batched via ``multicast_batch`` — and awaits every destination's
response.  Frames are length-prefixed JSON whose shape one schema table
decides for both directions (:mod:`~repro.runtime.codec`);
:class:`FrameServer` is the one front end that reads them (every server and
client here subclasses it); :class:`AsyncioTransport` adapts the
protocol-facing :class:`~repro.sim.transport.Transport` interface to one
persistent connection per peer — the FIFO links the paper assumes — so the
protocol classes themselves are byte-for-byte the ones the simulator runs.
The baselines (Skeen, hierarchical) run in the simulator only.
"""

from .. import lazy_exports

#: Public name -> the submodule defining it.  The package imports none of
#: them itself: a name is imported on first use (PEP 562), so a process that
#: needs one subsystem does not load the others.
_EXPORTS = {
    "AsyncMulticastClient": ".client",
    "CodecError": ".codec",
    "decode_frame": ".codec",
    "encode_frame": ".codec",
    "read_frame": ".codec",
    "FrameServer": ".node",
    "ClusterSpec": ".proc",
    "ProcessCluster": ".proc",
    "ReplicaServer": ".proc",
    "AddressBook": ".transport",
    "AsyncioTransport": ".transport",
}

__all__ = [*_EXPORTS]

__getattr__ = lazy_exports(__name__, _EXPORTS)
