"""Abstract durable-storage interfaces (a namespace of WALs).

The contract is deliberately tiny so the same protocol code runs against the
deterministic in-memory backend in the simulator/fuzzer and against real
files in the asyncio runtime:

* records appended to a :class:`WAL` must be JSON-serializable values; the
  backend owns the encoding — except of a log value, which its writer hands
  over as JSON text (``bytes``, the last element of the record) and every
  backend stores and returns as those bytes.  ``append`` is durable once
  :meth:`WAL.sync` returns (backends may batch fsyncs — see
  :class:`~repro.storage.file.FileWAL` for what that trades away);
* :meth:`WAL.records` returns every surviving record in append order — after
  a crash that may exclude a torn or unsynced tail, never reorder or invent
  records;
* :meth:`WAL.scan` yields the same records one at a time, each with a
  position :meth:`WAL.read` takes back, so a reader of a long log holds one
  record, not the log;
* :meth:`WAL.reset` atomically replaces the log's contents (used to cut a
  commit log back to the prefix its replay could resolve).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Iterable, Iterator, List, Tuple


class StorageError(Exception):
    """Raised when a storage backend hits an unrecoverable problem."""


class WAL(ABC):
    """An append-only log of JSON-able records."""

    @abstractmethod
    def append(self, record: Any) -> None:
        """Append one record (durable after the next :meth:`sync`)."""

    def records(self) -> List[Any]:
        """All surviving records, in append order."""
        return [record for _, record in self.scan()]

    @abstractmethod
    def scan(self) -> Iterator[Tuple[int, Any]]:
        """``(position, record)`` for every surviving record, in append order,
        read as the iteration asks for it."""

    @abstractmethod
    def read(self, position: int) -> Any:
        """The record :meth:`scan` found at ``position``."""

    @abstractmethod
    def reset(self, records: Iterable[Any] = ()) -> None:
        """Atomically replace the log's contents with ``records``."""

    @abstractmethod
    def sync(self) -> None:
        """Force everything appended so far to durable storage."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of records currently in the log."""

    def close(self) -> None:
        """Release backend resources (no-op by default)."""


class Storage(ABC):
    """A namespace of WALs."""

    @abstractmethod
    def wal(self, name: str) -> WAL:
        """Open (creating if needed) the WAL called ``name``."""

    def sync(self) -> None:
        """Force all pending writes to durable storage (no-op by default)."""

    def close(self) -> None:
        """Release backend resources (no-op by default)."""
