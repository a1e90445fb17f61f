"""Correctness checking of atomic multicast traces.

What lives here: oracle functions over recorded delivery traces.  The main
entry point is :func:`check_trace` (integrity, validity/agreement, prefix
and acyclic order — returning a :class:`CheckReport` of
:class:`Violation`\\ s with concrete cycle witnesses), complemented by
:func:`check_sequential_replay` (state-level divergence, the form
applications see ordering bugs in), :func:`conservation_check`
(exactly-once effect accounting) and :func:`check_genuineness`.  The
fuzz harness (:mod:`repro.fuzz.harness`) runs the whole suite on every
scenario; batched runs are split into per-message deliveries by the
delivery gate before these oracles ever see them.  Crash-restart runs add
:func:`check_recovery`, which pins a rebooted replica's delivery sequence
across the restart boundary (no loss, no duplication, prefix consistency,
convergence with the survivors).
"""

from .properties import (
    CheckReport,
    Violation,
    check_genuineness,
    check_trace,
)
from .recovery import check_recovery
from .replay import check_sequential_replay, conservation_check, witness_order

__all__ = [
    "CheckReport",
    "Violation",
    "check_genuineness",
    "check_recovery",
    "check_trace",
    "check_sequential_replay",
    "conservation_check",
    "witness_order",
]
