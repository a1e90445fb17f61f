"""Deterministic in-memory storage backend (simulator / fuzzing).

A simulated crash tears the *replica* down but leaves the
:class:`InMemoryStorage` object alive in the harness, exactly like a real
node's disk surviving its process.  To keep "works under fuzzing" equivalent
to "works on the file backend", a WAL here holds the frames the file backend
would write and reads them back through the same scan: a record the file
backend could not encode, or that would come back different (tuples as
lists, a value line as ``bytes``), fails or changes shape identically here.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Tuple

from .base import WAL, Storage
from .file import _encode_record, _scan


class InMemoryWAL(WAL):
    """A WAL backed by a list of frames (shared across replica incarnations).

    Each append counts into ``stats["appends"]``, the storage's counter.
    """

    def __init__(self, frames: List[bytes], stats: Dict[str, int]) -> None:
        self._frames = frames
        self._stats = stats

    def append(self, record: Any) -> None:
        self._frames.append(_encode_record(record))
        self._stats["appends"] += 1

    def scan(self) -> Iterator[Tuple[int, Any]]:
        # A position is the frame's index; the first bad frame ends the log.
        for position, frame in enumerate(self._frames):
            parsed = next(_scan(frame), None)
            if parsed is None:
                return
            yield position, parsed[0]

    def read(self, position: int) -> Any:
        return next(_scan(self._frames[position]))[0]

    def reset(self, records: Iterable[Any] = ()) -> None:
        self._frames[:] = [_encode_record(record) for record in records]

    def sync(self) -> None:
        pass

    def __len__(self) -> int:
        return len(self._frames)


class InMemoryStorage(Storage):
    """Deterministic storage that survives simulated crash/restart cycles."""

    def __init__(self) -> None:
        self._wals: Dict[str, List[bytes]] = {}
        #: Counter for tests/benchmarks: appends seen.
        self.stats = {"appends": 0}

    def wal(self, name: str) -> InMemoryWAL:
        return InMemoryWAL(self._wals.setdefault(name, []), self.stats)

    def wal_names(self) -> List[str]:
        """Names of every WAL ever opened (introspection)."""
        return sorted(self._wals)
