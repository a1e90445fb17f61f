"""Correctness checking of atomic multicast traces.

What lives here: oracle functions over recorded delivery traces.  The main
entry point is :func:`check_trace` (integrity, validity/agreement, prefix
and acyclic order — returning a :class:`CheckReport` of
:class:`Violation`\\ s with concrete cycle witnesses), beside
:func:`check_genuineness`.  The fuzz harness (:mod:`repro.fuzz.harness`)
and the explorer run :func:`check_trace` on every run and leaf; batched
runs are split into per-message deliveries by the delivery gate before it
ever sees them.  Crash-restart runs add :func:`check_recovery`, which pins a
rebooted replica's delivery sequence across the restart boundary (no loss,
no duplication, prefix consistency, convergence with the survivors).
"""

from .properties import (
    CheckReport,
    Violation,
    check_genuineness,
    check_trace,
)
from .recovery import check_recovery

__all__ = [
    "CheckReport",
    "Violation",
    "check_genuineness",
    "check_recovery",
    "check_trace",
]
