"""File-backed storage: CRC-framed append-only WAL segments.

WAL file format — a sequence of frames, nothing else::

    [u32 payload length][u32 CRC-32 of payload][payload: UTF-8 JSON]

(big-endian, mirroring the runtime's length-prefixed wire framing).  The
payload is one JSON document, or — a record that carries a log value — the
record without it, a newline, and the value's JSON text as its writer was
handed it (``bytes``, the record's last element): nothing below the state
machine encodes or decodes a value to store it.  A crash
can leave at most a *torn tail*: a final frame whose header, payload, or CRC
is incomplete or wrong.  :meth:`FileWAL` handles that on open by truncating
the file back to the last complete, CRC-valid frame — records before the tear
are untouched, records after it never existed durably.

Durability knob: ``fsync_every`` batches fsyncs — an fsync is issued every
N appends instead of on every append.  That caps the worst-case loss on a
*machine* crash at the last N records (a mere process crash loses nothing:
the OS still has the written pages).  The Paxos acceptor takes that risk: it
replies once a record is written to the OS, not once it is synced — nothing
in :mod:`repro.smr` calls :meth:`FileWAL.sync`, and ``ReplicaServer`` keeps
the default ``fsync_every=64``.  DESIGN.md "fsync batching" states the
trade-off; ``fsync_every=1`` makes every append a hard durability point.

:meth:`FileWAL.reset` writes the replacement to a temporary file, fsyncs it,
then atomically renames it over the old WAL, so a reader sees the old or the
new contents — never a torn mix.
"""

from __future__ import annotations

import io
import os
import struct
import time
import zlib
from typing import Any, BinaryIO, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ..jsontext import json_text, json_value
from ..obs import Observability
from ..obs.registry import Histogram
from .base import WAL, Storage, StorageError

_HEADER = struct.Struct(">II")  # (payload length, CRC-32 of payload)

#: Refuse absurd frames (corrupt length field) instead of allocating gigabytes.
MAX_RECORD_BYTES = 16 * 1024 * 1024


def _encode_record(record: Any) -> bytes:
    """One frame.  A record whose last element is ``bytes`` carries a log value
    as JSON text its caller already produced: the text is stored as it is, on a
    line of its own after the rest (our JSON never holds a raw newline)."""
    text = b""
    if type(record) is list and record and type(record[-1]) is bytes:
        record, text = record[:-1], b"\n" + record[-1]
    try:
        payload = json_text(record) + text
    except (TypeError, ValueError) as exc:
        raise StorageError(f"record is not JSON-serializable: {exc}") from exc
    if len(payload) > MAX_RECORD_BYTES:
        raise StorageError(f"record too large: {len(payload)} bytes")
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _payloads(data: Union[bytes, BinaryIO]) -> Iterator["tuple[bytes, int]"]:
    """``(payload, end offset)`` of every frame of ``data`` (bytes, or a file
    read from its current position one frame at a time) up to the first torn
    or corrupt one — everything from there on is a tail to truncate (an
    interior corruption also invalidates what follows: frame boundaries can
    no longer be trusted)."""
    stream = io.BytesIO(data) if isinstance(data, bytes) else data
    offset = 0
    while True:
        header = stream.read(_HEADER.size)
        if len(header) < _HEADER.size:
            return
        length, crc = _HEADER.unpack(header)
        # A corrupt length field, a short read (torn payload), a bad CRC.
        if length > MAX_RECORD_BYTES:
            return
        payload = stream.read(length)
        if len(payload) < length or zlib.crc32(payload) != crc:
            return
        offset += _HEADER.size + length
        yield payload, offset


def _record(payload: bytes) -> Any:
    """The one JSON parse of a record.  A value line comes back as the
    ``bytes`` it was appended as, not decoded.  Garbage behind a valid CRC (a
    collision) raises ``ValueError`` or ``AttributeError``: a torn tail."""
    head, newline, text = payload.partition(b"\n")
    record = json_value(head)
    if newline:
        record.append(text)
    return record


def _scan(data: Union[bytes, BinaryIO]) -> Iterator["tuple[Any, int]"]:
    """``(record, end offset)`` of every frame of ``data`` up to the first
    torn, corrupt or unparseable one."""
    for payload, end in _payloads(data):
        try:
            record = _record(payload)
        except (AttributeError, ValueError):
            return  # CRC collision on garbage; treat as torn
        yield record, end


def _scan_frames(data: bytes) -> "tuple[List[Any], int]":
    """Parse frames out of ``data``; returns (records, end-of-last-good-frame)."""
    records: List[Any] = []
    good_end = 0
    for record, good_end in _scan(data):
        records.append(record)
    return records, good_end


class FileWAL(WAL):
    """One append-only CRC-framed WAL file with batched fsyncs.

    ``append_hist`` / ``fsync_hist`` are optional latency histograms
    (milliseconds, :mod:`repro.obs`): when set, every append and fsync is
    timed with ``time.perf_counter``.  Left unset (the default), the write
    path is exactly the uninstrumented code.
    """

    def __init__(
        self,
        path: str,
        fsync_every: int = 64,
        append_hist: Optional[Histogram] = None,
        fsync_hist: Optional[Histogram] = None,
    ) -> None:
        if fsync_every < 1:
            raise ValueError("fsync_every must be >= 1")
        self.path = path
        self._fsync_every = fsync_every
        self._unsynced = 0
        self.append_hist = append_hist
        self.fsync_hist = fsync_hist
        self._count = self._recover()
        self._file = open(self.path, "ab")
        #: What :meth:`read` seeks in; opened by the first read.
        self._reader: Optional[BinaryIO] = None

    # ------------------------------------------------------------------ open
    def _recover(self) -> int:
        """Count the surviving records, truncating any torn tail in place."""
        if not os.path.exists(self.path):
            return 0
        count = good_end = 0
        with open(self.path, "rb") as fh:
            # Checksums only: records() is where a record is parsed, once.
            for _, good_end in _payloads(fh):
                count += 1
            size = fh.seek(0, os.SEEK_END)
        if good_end < size:
            with open(self.path, "r+b") as fh:
                fh.truncate(good_end)
                fh.flush()
                os.fsync(fh.fileno())
        return count

    # ------------------------------------------------------------------- api
    def append(self, record: Any) -> None:
        started = time.perf_counter() if self.append_hist is not None else 0.0
        frame = _encode_record(record)
        self._file.write(frame)
        self._count += 1
        self._unsynced += 1
        if self._unsynced >= self._fsync_every:
            self.sync()
        else:
            self._file.flush()
        if self.append_hist is not None:
            self.append_hist.observe((time.perf_counter() - started) * 1000.0)

    def scan(self) -> Iterator[Tuple[int, Any]]:
        # The file is the only copy, and every append has reached the OS
        # (flush or fsync) by the time it returns.  A position is the
        # frame's byte offset.
        with open(self.path, "rb") as fh:
            position = 0
            for record, end in _scan(fh):
                yield position, record
                position = end

    def read(self, position: int) -> Any:
        if self._reader is None:
            self._reader = open(self.path, "rb")
        self._reader.seek(position)
        payload, _ = next(_payloads(self._reader))
        return _record(payload)

    def _close_reader(self) -> None:
        if self._reader is not None:
            self._reader.close()
            self._reader = None

    def reset(self, records: Iterable[Any] = ()) -> None:
        replacement = list(records)
        tmp_path = self.path + ".tmp"
        with open(tmp_path, "wb") as fh:
            for record in replacement:
                fh.write(_encode_record(record))
            fh.flush()
            os.fsync(fh.fileno())
        self._file.close()
        self._close_reader()
        os.replace(tmp_path, self.path)
        _fsync_dir(os.path.dirname(self.path))
        self._file = open(self.path, "ab")
        self._count = len(replacement)
        self._unsynced = 0

    def sync(self) -> None:
        started = time.perf_counter() if self.fsync_hist is not None else 0.0
        self._file.flush()
        os.fsync(self._file.fileno())
        self._unsynced = 0
        if self.fsync_hist is not None:
            self.fsync_hist.observe((time.perf_counter() - started) * 1000.0)

    def __len__(self) -> int:
        return self._count

    def close(self) -> None:
        self._close_reader()
        if not self._file.closed:
            self.sync()
            self._file.close()


def _fsync_dir(path: str) -> None:
    """fsync a directory so renames/creations inside it are durable."""
    fd = os.open(path or ".", os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _safe_name(name: str) -> str:
    return "".join(c if c.isalnum() or c in "._-" else "_" for c in name)


class FileStorage(Storage):
    """Directory-per-node storage: ``<dir>/<name>.wal``."""

    def __init__(
        self,
        root: str,
        fsync_every: int = 64,
        obs: Optional[Observability] = None,
    ) -> None:
        self.root = root
        self._fsync_every = fsync_every
        os.makedirs(root, exist_ok=True)
        self._open_wals: Dict[str, FileWAL] = {}
        self._append_hist: Optional[Histogram] = None
        self._fsync_hist: Optional[Histogram] = None
        if obs is not None:
            self.attach_obs(obs)

    def attach_obs(self, obs: Observability) -> None:
        """Register WAL latency histograms + segment gauges (repro.obs).

        All WAL files of this storage share one append and one fsync
        histogram (the interesting distribution is per device, not per
        segment); segment counts are pull-based gauges over state the
        storage already tracks.
        """
        labels = {"root": os.path.basename(self.root) or self.root}
        self._append_hist = obs.registry.histogram(
            "wal_append_ms", "FileWAL append latency (write + flush).", labels
        )
        self._fsync_hist = obs.registry.histogram(
            "wal_fsync_ms", "FileWAL fsync latency.", labels
        )
        for wal in self._open_wals.values():
            wal.append_hist = self._append_hist
            wal.fsync_hist = self._fsync_hist
        obs.registry.gauge(
            "storage_open_wal_segments",
            "WAL segments currently open in this storage.",
            labels,
            fn=lambda: sum(
                1 for w in self._open_wals.values() if not w._file.closed
            ),
        )
        obs.registry.gauge(
            "storage_wal_records",
            "Records across all open WAL segments.",
            labels,
            fn=lambda: sum(
                len(w) for w in self._open_wals.values() if not w._file.closed
            ),
        )

    def wal(self, name: str) -> FileWAL:
        # Reopening a name returns the live handle: the file backend has a
        # single process owning the directory, and two handles appending to
        # one file would interleave frames unpredictably.
        existing = self._open_wals.get(name)
        if existing is not None and not existing._file.closed:
            return existing
        wal = FileWAL(
            os.path.join(self.root, _safe_name(name) + ".wal"),
            fsync_every=self._fsync_every,
            append_hist=self._append_hist,
            fsync_hist=self._fsync_hist,
        )
        self._open_wals[name] = wal
        return wal

    def sync(self) -> None:
        for wal in self._open_wals.values():
            if not wal._file.closed:
                wal.sync()

    def close(self) -> None:
        for wal in self._open_wals.values():
            wal.close()
        self._open_wals.clear()
