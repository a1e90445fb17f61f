"""Deterministic fault profiles.

A profile decorates a base workload scenario with fault injection and sets
the matching oracle expectations:

* ``none`` — schedule/jitter exploration only (baseline);
* ``dup`` — a seeded fraction of FlexCast protocol envelopes is duplicated
  through ``Network.set_drop_filter`` (idempotence must absorb them; full
  delivery is still expected);
* ``loss`` — a seeded fraction of protocol envelopes is dropped.  FlexCast
  assumes reliable channels, so liveness is forfeit by design; the oracle
  switches to safety-only mode (everything that *was* delivered must still
  satisfy integrity/prefix/acyclic order and replay consistency);
* ``crash`` — the run uses a multi-Paxos replicated group
  (:class:`repro.smr.replica.ReplicatedGroup`) and crashes a seeded victim
  replica mid-run; survivors must agree, and — thanks to the bounded client
  retry layer — *every* submission must still be delivered exactly once;
* ``crash-restart`` — like ``crash``, but the victim also reboots from its
  persisted WALs mid-run (sometimes twice, sometimes a second
  victim).  On top of the ``crash`` oracle, the recovery oracle pins the
  rejoined replica's delivery sequence: duplicate-free, prefix-consistent
  with its own pre-crash deliveries, and convergent with the survivors;
* ``reconfig`` — one or two scripted overlay switches (random permutations)
  run mid-traffic through the epoch coordinator; the whole multi-epoch trace
  must satisfy the regular properties plus ``check_epochs``.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Any, Callable, Optional

from ..core.message import (
    FlexCastAck,
    FlexCastBatch,
    FlexCastMsg,
    FlexCastNotif,
    FlexCastTsPropose,
)
from .scenario import Crash, FuzzScenario, Reconfig, Restart

PROFILES = ("none", "dup", "loss", "crash", "reconfig", "crash-restart")

#: Bounded resubmit attempts for crash-family profiles (see
#: :class:`repro.workload.clients.BoundedResubmitter`).
_CRASH_CLIENT_RETRIES = 4

#: Envelope kinds subject to fault injection, per fault mode.  Hybrid-mode
#: timestamp proposals are *duplicated* (exercising the authority's
#: duplicate-propose absorption) but never *dropped*: FlexCast assumes
#: reliable channels either way, and a lost proposal head-of-line-blocks the
#: entire convoy — every later global message at that destination stalls
#: behind the undecided entry, so loss runs would degenerate into checking
#: ever-emptier delivery prefixes instead of exploring msg/ack/notif loss.
#: Batch submissions (client -> lca) are both droppable and duplicable: a
#: dropped batch must degrade exactly like N dropped messages (all-or-
#: nothing, checked by the harness's batch-atomicity oracle) and a
#: duplicated one must be absorbed once, like any re-submitted request.
#: Plain ClientRequests stay exempt, so the seeded fault schedule of every
#: pre-batching scenario is unchanged; batch envelopes only exist when a
#: scenario's ``batch_window`` > 1.
_DROPPABLE_ENVELOPES = (FlexCastMsg, FlexCastAck, FlexCastNotif, FlexCastBatch)
_DUPLICABLE_ENVELOPES = _DROPPABLE_ENVELOPES + (FlexCastTsPropose,)


def apply_profile(scenario: FuzzScenario, profile: str) -> FuzzScenario:
    """Attach ``profile`` to a base workload scenario (deterministic)."""
    rng = random.Random(scenario.profile_seed)
    horizon = max((s.at_ms for s in scenario.submissions), default=1_000.0)
    if profile == "none":
        return replace(scenario, profile="none")
    if profile == "dup":
        return replace(
            scenario, profile="dup", profile_rate=rng.choice([0.05, 0.15, 0.4])
        )
    if profile == "loss":
        return replace(
            scenario,
            profile="loss",
            profile_rate=rng.choice([0.01, 0.05, 0.15]),
            expect_all_delivered=False,
            # Loss keeps histories permanently incomplete; periodic flushes
            # would just stall too, so drop them for clarity.
            gc_interval_ms=None,
        )
    if profile in ("crash", "crash-restart"):
        # SMR mode: a single replicated group absorbing the whole submission
        # stream, with a seeded victim replica crashed mid-run.  The crash
        # time is drawn before the victim so every pre-existing ``crash``
        # seed keeps its historical crash instant.
        submissions = tuple(
            replace(s, dst=(0,)) for s in scenario.submissions
        )
        crash_at = round(rng.uniform(horizon * 0.2, horizon * 0.7), 3)
        victim = rng.randrange(3)
        common = dict(
            order=(0,),
            submissions=submissions,
            replication_factor=3,
            # Bounded resubmit-on-timeout: requests lost with a crashing
            # replica are retried by the client, so full delivery is back in
            # the oracle's contract (re-submission is idempotent end to end).
            client_retries=_CRASH_CLIENT_RETRIES,
            expect_all_delivered=True,
            gc_interval_ms=None,
            jitter_ms=min(scenario.jitter_ms, 1.0),
        )
        if profile == "crash":
            return replace(
                scenario,
                profile="crash",
                crashes=(Crash(at_ms=crash_at, replica=victim),),
                **common,
            )
        # crash-restart: the victim reboots from its persisted state while
        # traffic continues; ~1 in 3 seeds follows with a second crash-and-
        # rejoin cycle (possibly of a different replica, possibly of the same
        # one again — exercising WAL reuse across incarnations).
        restart_at = round(crash_at + rng.uniform(0.15, 0.35) * horizon, 3)
        crashes = [Crash(at_ms=crash_at, replica=victim)]
        restarts = [Restart(at_ms=restart_at, replica=victim)]
        if rng.random() < 0.34:
            victim2 = rng.randrange(3)
            crash2_at = round(restart_at + rng.uniform(0.1, 0.25) * horizon, 3)
            restart2_at = round(crash2_at + rng.uniform(0.1, 0.25) * horizon, 3)
            crashes.append(Crash(at_ms=crash2_at, replica=victim2))
            restarts.append(Restart(at_ms=restart2_at, replica=victim2))
        return replace(
            scenario,
            profile="crash-restart",
            crashes=tuple(crashes),
            restarts=tuple(restarts),
            **common,
        )
    if profile == "reconfig":
        num_switches = rng.randint(1, 2)
        reconfigs = []
        for i in range(1, num_switches + 1):
            at = round(horizon * i / (num_switches + 1.0), 3)
            order = list(scenario.order)
            rng.shuffle(order)
            reconfigs.append(Reconfig(at_ms=at, order=tuple(order)))
        return replace(scenario, profile="reconfig", reconfigs=tuple(reconfigs))
    raise ValueError(f"unknown fault profile {profile!r}")


class EnvelopeFaultFilter:
    """Seeded drop/duplicate filter for protocol envelopes.

    Installed via ``Network.set_drop_filter``.  Duplication re-sends the same
    payload once; a re-entrancy flag lets the nested send pass through
    untouched.  All decisions come from one seeded RNG stream and nothing
    depends on object identity, so two runs of the same scenario inject the
    exact same fault schedule (the replay/shrink contract).
    """

    def __init__(
        self,
        network,
        rate: float,
        seed: int,
        mode: str,
        predicate: Optional[Callable[[Any], bool]] = None,
    ) -> None:
        if mode not in ("drop", "dup"):
            raise ValueError(f"unknown fault mode {mode!r}")
        if predicate is None:
            kinds = _DROPPABLE_ENVELOPES if mode == "drop" else _DUPLICABLE_ENVELOPES
            predicate = lambda p: isinstance(p, kinds)  # noqa: E731
        self._network = network
        self._rate = float(rate)
        self._rng = random.Random(seed)
        self._mode = mode
        self._predicate = predicate
        self._resending = False
        self.dropped = 0
        self.duplicated = 0

    def __call__(self, src, dst, payload) -> bool:
        if self._resending or not self._predicate(payload):
            return False
        if self._mode == "drop":
            if self._rng.random() < self._rate:
                self.dropped += 1
                return True
            return False
        if self._rng.random() < self._rate:
            self.duplicated += 1
            self._resending = True
            try:
                self._network.send(src, dst, payload)
            finally:
                self._resending = False
        return False
