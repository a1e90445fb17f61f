"""Shared fixtures for the test suite."""

from __future__ import annotations

import gc
import os
import random

import pytest
from hypothesis import settings as hypothesis_settings

import repro.core.flexcast as flexcast_module
from repro.core.message import reset_message_ids
from repro.overlay.builders import standard_overlays
from repro.sim.latencies import aws_latency_matrix

# Hypothesis example budgets.  Tests that pin their own @settings are
# unaffected; tests that don't (the single-shared-group strategy suite)
# scale with the profile — nightly CI exports HYPOTHESIS_PROFILE=nightly
# for a 10x longer adversarial search.
hypothesis_settings.register_profile("ci", max_examples=15, deadline=None)
hypothesis_settings.register_profile(
    "nightly", max_examples=150, deadline=None
)
hypothesis_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


@pytest.fixture(autouse=True)
def _fresh_message_ids():
    """Keep message ids short and deterministic within each test."""
    reset_message_ids()
    yield


@pytest.fixture
def refcount_only():
    """Run the test with the cyclic collector off: what the test drops is
    freed by reference counting or not at all, and ``gc.collect()`` returns
    how many objects were left as cyclic garbage."""
    gc.collect()
    gc.disable()
    yield
    gc.enable()


@pytest.fixture
def substitute_groups(monkeypatch):
    """Make the protocol factories build the given group subclasses (a
    differential reference, a deliberately broken variant) until teardown."""

    def enable(group_class):
        monkeypatch.setattr(flexcast_module, "FlexCastGroup", group_class)

    return enable


@pytest.fixture(scope="session")
def latencies():
    """The default 12-region AWS latency matrix."""
    return aws_latency_matrix()


@pytest.fixture(scope="session")
def overlays(latencies):
    """All standard overlays (O1, O2, T1, T2, T3, complete)."""
    return standard_overlays(latencies)


@pytest.fixture
def rng():
    return random.Random(42)
