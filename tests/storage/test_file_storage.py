"""FileStorage/FileWAL: framing, torn-write recovery, fsync batching."""

from __future__ import annotations

import json
import os
import struct
import zlib

import pytest

from repro.storage import FileStorage, StorageError
from repro.storage.file import _HEADER, FileWAL


def _wal_path(storage: FileStorage, name: str) -> str:
    return os.path.join(storage.root, name + ".wal")


def test_append_and_reopen_round_trip(tmp_path):
    storage = FileStorage(str(tmp_path))
    wal = storage.wal("log")
    records = [["v", "m1", [0, 1]], ["e", "m1", "m2"], {"k": 1}, 7, "plain"]
    for record in records:
        wal.append(record)
    wal.close()

    reopened = FileStorage(str(tmp_path)).wal("log")
    assert reopened.records() == records
    assert len(reopened) == len(records)


def test_records_are_json_normalized(tmp_path):
    wal = FileStorage(str(tmp_path)).wal("log")
    wal.append(["v", "m1", (0, 1)])  # tuple -> list through JSON
    assert wal.records() == [["v", "m1", [0, 1]]]


def test_truncated_payload_recovers_to_last_complete_record(tmp_path):
    storage = FileStorage(str(tmp_path))
    wal = storage.wal("log")
    for i in range(5):
        wal.append({"i": i})
    wal.close()

    path = _wal_path(storage, "log")
    size = os.path.getsize(path)
    with open(path, "r+b") as fh:
        fh.truncate(size - 3)  # torn mid-payload of the last frame

    recovered = FileStorage(str(tmp_path)).wal("log")
    assert recovered.records() == [{"i": i} for i in range(4)]
    # The torn tail was truncated away on open: appends go to a clean end.
    recovered.append({"i": "new"})
    recovered.close()
    again = FileStorage(str(tmp_path)).wal("log")
    assert again.records() == [{"i": 0}, {"i": 1}, {"i": 2}, {"i": 3}, {"i": "new"}]


def test_truncated_header_recovers(tmp_path):
    storage = FileStorage(str(tmp_path))
    wal = storage.wal("log")
    wal.append("a")
    wal.append("b")
    wal.close()
    path = _wal_path(storage, "log")
    with open(path, "ab") as fh:
        fh.write(b"\x00\x00")  # 2 bytes of a header that never finished

    recovered = FileStorage(str(tmp_path)).wal("log")
    assert recovered.records() == ["a", "b"]
    assert os.path.getsize(path) == os.path.getsize(path)  # stable after open


def test_bad_crc_drops_frame_and_everything_after(tmp_path):
    storage = FileStorage(str(tmp_path))
    wal = storage.wal("log")
    for i in range(4):
        wal.append({"i": i})
    wal.close()

    # Flip one payload byte inside the third frame: its CRC no longer
    # matches, so frames 3 and 4 are both gone (boundaries past a corrupt
    # frame cannot be trusted).
    path = _wal_path(storage, "log")
    with open(path, "rb") as fh:
        data = fh.read()
    offset = 0
    for _ in range(2):  # skip two good frames
        length, _ = _HEADER.unpack_from(data, offset)
        offset += _HEADER.size + length
    corrupt_at = offset + _HEADER.size + 2
    corrupted = data[:corrupt_at] + bytes([data[corrupt_at] ^ 0xFF]) + data[corrupt_at + 1 :]
    with open(path, "wb") as fh:
        fh.write(corrupted)

    recovered = FileStorage(str(tmp_path)).wal("log")
    assert recovered.records() == [{"i": 0}, {"i": 1}]
    assert os.path.getsize(path) < len(corrupted)


def test_absurd_length_field_treated_as_torn(tmp_path):
    storage = FileStorage(str(tmp_path))
    wal = storage.wal("log")
    wal.append("good")
    wal.close()
    path = _wal_path(storage, "log")
    with open(path, "ab") as fh:
        fh.write(struct.pack(">II", 2**31, 0) + b"junk")

    recovered = FileStorage(str(tmp_path)).wal("log")
    assert recovered.records() == ["good"]


def test_empty_and_missing_files(tmp_path):
    storage = FileStorage(str(tmp_path))
    assert storage.wal("never-written").records() == []
    open(os.path.join(str(tmp_path), "empty.wal"), "wb").close()
    assert storage.wal("empty").records() == []


def test_reset_replaces_contents_atomically(tmp_path):
    storage = FileStorage(str(tmp_path))
    wal = storage.wal("log")
    for i in range(10):
        wal.append(i)
    wal.reset([["compacted", 1]])
    assert wal.records() == [["compacted", 1]]
    wal.append("after")
    wal.close()
    assert FileStorage(str(tmp_path)).wal("log").records() == [["compacted", 1], "after"]
    assert not os.path.exists(_wal_path(storage, "log") + ".tmp")


def test_fsync_batching_still_flushes_every_append(tmp_path):
    # With fsync_every=1000 nothing forces an fsync, but appends are still
    # flushed to the OS, so a reader sees every record (process-crash model).
    storage = FileStorage(str(tmp_path), fsync_every=1000)
    wal = storage.wal("log")
    for i in range(7):
        wal.append(i)
    with open(_wal_path(storage, "log"), "rb") as fh:
        data = fh.read()
    frames = 0
    offset = 0
    while offset < len(data):
        length, crc = _HEADER.unpack_from(data, offset)
        payload = data[offset + _HEADER.size : offset + _HEADER.size + length]
        assert zlib.crc32(payload) == crc
        frames += 1
        offset += _HEADER.size + length
    assert frames == 7


def test_non_serializable_record_rejected(tmp_path):
    wal = FileStorage(str(tmp_path)).wal("log")
    with pytest.raises(StorageError):
        wal.append(object())


def test_wal_names_are_sanitized(tmp_path):
    storage = FileStorage(str(tmp_path))
    wal = storage.wal("group/0:replica 1")
    wal.append(1)
    assert os.path.exists(os.path.join(str(tmp_path), "group_0_replica_1.wal"))


def test_shared_handle_for_same_name(tmp_path):
    storage = FileStorage(str(tmp_path))
    first = storage.wal("log")
    first.append(1)
    second = storage.wal("log")
    assert second is first  # no interleaved double-appenders on one file


def test_direct_filewal_reopen_after_close(tmp_path):
    path = os.path.join(str(tmp_path), "direct.wal")
    wal = FileWAL(path, fsync_every=1)
    wal.append({"x": 1})
    wal.close()
    assert FileWAL(path).records() == [{"x": 1}]


def test_records_always_equal_a_fresh_open_of_the_same_path(tmp_path):
    # FileWAL keeps no parsed copy of its records: records() reads the file,
    # so at every point it must say what a process restarting now would see.
    path = os.path.join(str(tmp_path), "log.wal")

    def fresh_open():
        other = FileWAL(path)
        try:
            return other.records(), len(other)
        finally:
            other.close()

    wal = FileWAL(path, fsync_every=4)
    expected = []
    for i in range(11):  # crosses fsync boundaries and stops between two
        wal.append({"i": i, "pair": (i, str(i))})
        expected.append({"i": i, "pair": [i, str(i)]})
        assert len(wal) == len(expected)
    assert wal.records() == expected
    assert fresh_open() == (expected, 11)

    wal.reset([["compacted", 7]])
    assert (wal.records(), len(wal)) == ([["compacted", 7]], 1)
    assert fresh_open() == ([["compacted", 7]], 1)
    wal.append("after")
    assert wal.records() == [["compacted", 7], "after"]
    wal.close()

    with open(path, "ab") as fh:  # a crash mid-append: half a frame
        fh.write(_HEADER.pack(50, 0) + b"torn")
    reopened = FileWAL(path)
    assert (reopened.records(), len(reopened)) == ([["compacted", 7], "after"], 2)
    reopened.append("next")
    assert reopened.records() == [["compacted", 7], "after", "next"]
    assert fresh_open() == ([["compacted", 7], "after", "next"], 3)
    reopened.close()
