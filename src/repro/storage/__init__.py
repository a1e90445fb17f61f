"""Pluggable durable storage for FlexCast nodes.

Production nodes restart; everything a replica needs to survive its own crash
lives behind the two small interfaces in :mod:`~repro.storage.base`:

* :class:`~repro.storage.base.WAL` — an append-only log of JSON-able records
  (the Paxos acceptor state, the commit log);
* :class:`~repro.storage.base.Storage` — a namespace of WALs.

Two backends are provided:

* :class:`~repro.storage.memory.InMemoryStorage` — deterministic, survives a
  *simulated* crash (the harness keeps the storage object while tearing the
  replica down), used by the simulator and the fuzz stack;
* :class:`~repro.storage.file.FileStorage` — real files: length-prefixed
  CRC-checked frames, fsync batching, torn-tail truncation on open.

What is rebuilt from them at boot is :mod:`repro.smr`'s business: a replica's
protocol state is a pure function of its replicated log.
"""

from .base import WAL, Storage, StorageError
from .file import FileStorage
from .memory import InMemoryStorage

__all__ = [
    "WAL",
    "Storage",
    "StorageError",
    "FileStorage",
    "InMemoryStorage",
]
