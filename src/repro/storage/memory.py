"""Deterministic in-memory storage backend (simulator / fuzzing).

A simulated crash tears the *replica* down but leaves the
:class:`InMemoryStorage` object alive in the harness, exactly like a real
node's disk surviving its process.  To keep "works under fuzzing" equivalent
to "works on the file backend", every record is round-tripped through JSON on
append (``normalize=True``, the default): a record that the file backend could
not encode, or that would come back subtly different (tuples as lists, dict
keys as strings), fails or changes shape identically here.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List

from .base import WAL, Storage, StorageError


class InMemoryWAL(WAL):
    """A WAL backed by a plain list (shared across replica incarnations)."""

    def __init__(self, records: List[Any], normalize: bool) -> None:
        self._records = records
        self._normalize = normalize

    def append(self, record: Any) -> None:
        if self._normalize:
            try:
                record = json.loads(json.dumps(record))
            except (TypeError, ValueError) as exc:
                raise StorageError(f"record is not JSON-serializable: {exc}") from exc
        self._records.append(record)

    def records(self) -> List[Any]:
        return list(self._records)

    def reset(self, records: Iterable[Any] = ()) -> None:
        self._records.clear()
        for record in records:
            self.append(record)

    def sync(self) -> None:
        pass

    def __len__(self) -> int:
        return len(self._records)


class InMemoryStorage(Storage):
    """Deterministic storage that survives simulated crash/restart cycles."""

    def __init__(self, normalize: bool = True) -> None:
        self._normalize = normalize
        self._wals: Dict[str, List[Any]] = {}
        #: Counter for tests/benchmarks: appends seen.
        self.stats = {"appends": 0}

    def wal(self, name: str) -> InMemoryWAL:
        backing = self._wals.setdefault(name, [])
        storage = self

        class _CountingWAL(InMemoryWAL):
            def append(self, record: Any) -> None:
                super().append(record)
                storage.stats["appends"] += 1

        return _CountingWAL(backing, self._normalize)

    def wal_names(self) -> List[str]:
        """Names of every WAL ever opened (introspection)."""
        return sorted(self._wals)
