"""A time-windowed multiset: the shared sliding-window primitive.

Extracted from ``reconfig/monitor.py``'s private plumbing (ISSUE 7
satellite): one observation carries several keys (a workload sample
increments a (home, dst) traffic cell, a pair cell and a home cell at
once), the window keeps per-key counts incrementally, and eviction is
O(expired entries) — never a rescan of the live window.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Hashable, Iterable, Tuple


class SlidingWindow:
    """Per-key counts over the trailing ``window_ms`` of observations."""

    def __init__(self, window_ms: float) -> None:
        if window_ms <= 0:
            raise ValueError("window_ms must be positive")
        self.window_ms = float(window_ms)
        self._entries: Deque[Tuple[float, Tuple[Hashable, ...]]] = deque()
        self._counts: Dict[Hashable, int] = {}
        #: Observations currently inside the window.
        self.sample_count = 0
        #: Observations ever pushed (monotonic, never evicted).
        self.total_observed = 0

    def observe(self, at: float, keys: Iterable[Hashable]) -> None:
        """Record one observation incrementing every key in ``keys``."""
        frozen = tuple(keys)
        self._entries.append((at, frozen))
        self.sample_count += 1
        self.total_observed += 1
        counts = self._counts
        for key in frozen:
            counts[key] = counts.get(key, 0) + 1

    def evict(self, now: float) -> None:
        """Expire observations older than ``now - window_ms``."""
        horizon = now - self.window_ms
        entries = self._entries
        counts = self._counts
        while entries and entries[0][0] < horizon:
            _, keys = entries.popleft()
            self.sample_count -= 1
            for key in keys:
                remaining = counts[key] - 1
                if remaining:
                    counts[key] = remaining
                else:
                    del counts[key]

    def count(self, key: Hashable) -> int:
        """Current in-window count for ``key`` (0 when absent)."""
        return self._counts.get(key, 0)

    def items(self) -> Dict[Hashable, int]:
        """Copy of all in-window ``key -> count`` pairs."""
        return dict(self._counts)

    def clear(self) -> None:
        """Drop all state, including the monotonic observed total."""
        self._entries.clear()
        self._counts.clear()
        self.sample_count = 0
        self.total_observed = 0
