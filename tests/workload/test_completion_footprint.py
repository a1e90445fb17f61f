"""Memory-footprint regression tests for the per-transaction completion record.

A run keeps one :class:`CompletedTransaction` per finished transaction, and
the evaluation keeps every run's records until it renders (a 288-client
Figure 6 run completes about 150,000 of them).  The record is therefore a
slotted two-field record, like the message core of
``tests/core/test_message_footprint.py``: these tests pin that it has no
per-instance dict, fits a byte budget, and carries exactly the two fields
the latency queries read.
"""

import dataclasses
import sys

import pytest

from repro.workload.clients import CompletedTransaction

#: Upper bound on the bare record (CPython 3.11 measures 48 bytes with 2
#: slots; a __dict__ would add at least 56 bytes plus the dict itself).
RECORD_SIZE_BUDGET = 56


def sample():
    return CompletedTransaction(120.0, (31.5, 64.25))


def test_record_fits_size_budget():
    assert sys.getsizeof(sample()) <= RECORD_SIZE_BUDGET


def test_record_has_no_instance_dict():
    with pytest.raises(AttributeError):
        sample().__dict__


def test_record_carries_exactly_its_two_fields():
    names = [f.name for f in dataclasses.fields(CompletedTransaction)]
    assert names == ["completed_at", "latencies_by_arrival"]
    assert CompletedTransaction.__slots__ == tuple(names)


def test_record_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        sample().completed_at = 0.0
