"""InMemoryStorage: determinism, JSON-normalization parity, crash survival."""

from __future__ import annotations

import pytest

from repro.storage import InMemoryStorage, StorageError
from repro.storage.memory import InMemoryWAL


def test_wal_survives_handle_loss():
    # The simulated-crash model: the replica (and its WAL handle) dies, the
    # storage object survives; a fresh handle sees everything.
    storage = InMemoryStorage()
    wal = storage.wal("r0.log")
    wal.append(["c", 0, "cmd"])
    del wal
    assert storage.wal("r0.log").records() == [["c", 0, "cmd"]]


def test_normalization_mirrors_json_round_trip():
    storage = InMemoryStorage()
    wal = storage.wal("w")
    wal.append(["v", "m1", (0, 1)])
    assert wal.records() == [["v", "m1", [0, 1]]]  # tuple became a list
    with pytest.raises(StorageError):
        wal.append(object())


def test_reset_and_len():
    wal = InMemoryStorage().wal("w")
    for i in range(5):
        wal.append(i)
    assert len(wal) == 5
    wal.reset([10, 11])
    assert wal.records() == [10, 11]
    assert len(wal) == 2


def test_append_stats_and_wal_names():
    storage = InMemoryStorage()
    storage.wal("w").append(1)
    assert storage.stats["appends"] == 1
    assert storage.wal_names() == ["w"]


def test_every_wal_is_one_class_and_appends_count_across_handles():
    # A class made per call is cyclic garbage that outlives every run.
    storage = InMemoryStorage()
    first, second = storage.wal("a"), storage.wal("b")
    assert type(first) is type(second) is InMemoryWAL
    first.append(1)
    second.append(2)
    storage.wal("a").append(3)
    with pytest.raises(StorageError):
        second.append(object())  # a record that never lands is not counted
    assert storage.stats["appends"] == 3
    assert InMemoryStorage().stats["appends"] == 0


def test_records_go_through_the_file_backends_framing(tmp_path):
    # Replaces the ``normalize=False`` passthrough test: there is no second
    # mode any more — what is stored is the frame FileWAL would write, so a
    # value line comes back as the bytes it was appended as, here as there.
    from repro.storage import FileStorage

    records = [["a", 0, [1, 0], b'{"k":[1,null]}'], ["c", 0], ["c", 1, b'"v"'], {"k": (1, 2)}]
    memory, disk = InMemoryStorage().wal("w"), FileStorage(str(tmp_path)).wal("w")
    for record in records:
        memory.append(record)
        disk.append(record)
    assert memory.records() == disk.records() == records[:3] + [{"k": [1, 2]}]
    with open(disk.path, "rb") as fh:
        assert b"".join(memory._frames) == fh.read()
    disk.close()
