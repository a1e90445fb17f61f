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
* ``crash`` — one multi-Paxos replicated group
  (:class:`repro.smr.replica.ReplicatedGroup`, 3 replicas) absorbs the whole
  submission stream and a seeded victim replica — leader or follower —
  crashes mid-run; survivors must agree, and — thanks to the bounded client
  retry layer — *every* submission must still be delivered exactly once;
* ``crash-restart`` — like ``crash``, but the victim also reboots from its
  persisted WALs mid-run (sometimes twice, sometimes a second
  victim).  On top of the ``crash`` oracle, the recovery oracle pins the
  rejoined replica's delivery sequence: duplicate-free, prefix-consistent
  with its own pre-crash deliveries, and convergent with the survivors;
* ``cluster-crash`` / ``cluster-crash-restart`` — the shape that ships
  (``ProcessCluster``: groups × replicas): the base scenario's groups and
  destination sets are kept and every group gets 3 replicas; the victim is a
  *follower* of a seeded group, because inter-group traffic is addressed to
  replica 0 of a group and a crashed replica 0 would take the channel with
  it (leader crashes are the single-group profiles' coverage).
"""

from __future__ import annotations

import random
from dataclasses import replace

from ..core.message import (
    FlexCastAck,
    FlexCastBatch,
    FlexCastMsg,
    FlexCastNotif,
    FlexCastTsPropose,
)
from .scenario import Crash, FuzzScenario, Restart

PROFILES = (
    "none", "dup", "loss", "crash", "crash-restart",
    "cluster-crash", "cluster-crash-restart",
)

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
    if profile in ("crash", "crash-restart", "cluster-crash", "cluster-crash-restart"):
        cluster = profile.startswith("cluster-")
        # The crash time is drawn before the victim so every pre-existing
        # ``crash`` seed keeps its historical crash instant.
        crash_at = round(rng.uniform(horizon * 0.2, horizon * 0.7), 3)

        def draw_victim() -> dict:
            if cluster:
                return dict(group=rng.choice(scenario.order), replica=rng.randint(1, 2))
            return dict(replica=rng.randrange(3))

        victim = draw_victim()
        crashes = [Crash(at_ms=crash_at, **victim)]
        restarts = []
        if profile.endswith("crash-restart"):
            # The victim reboots from its persisted state while traffic
            # continues; ~1 in 3 seeds follows with a second crash-and-rejoin
            # cycle (possibly of a different replica, possibly of the same
            # one again — exercising WAL reuse across incarnations).
            restart_at = round(crash_at + rng.uniform(0.15, 0.35) * horizon, 3)
            restarts.append(Restart(at_ms=restart_at, **victim))
            if rng.random() < 0.34:
                victim = draw_victim()
                crash_at = round(restart_at + rng.uniform(0.1, 0.25) * horizon, 3)
                restart_at = round(crash_at + rng.uniform(0.1, 0.25) * horizon, 3)
                crashes.append(Crash(at_ms=crash_at, **victim))
                restarts.append(Restart(at_ms=restart_at, **victim))
        scenario = replace(
            scenario,
            profile=profile,
            crashes=tuple(crashes),
            restarts=tuple(restarts),
            replication_factor=3,
            # Bounded resubmit-on-timeout: requests lost with a crashing
            # replica are retried by the client, so full delivery is back in
            # the oracle's contract (re-submission is idempotent end to end).
            client_retries=_CRASH_CLIENT_RETRIES,
            expect_all_delivered=True,
        )
        if cluster:
            return scenario
        # One replicated group absorbs the whole submission stream.
        return replace(
            scenario,
            order=(0,),
            submissions=tuple(replace(s, dst=(0,)) for s in scenario.submissions),
            gc_interval_ms=None,
            jitter_ms=min(scenario.jitter_ms, 1.0),
        )
    raise ValueError(f"unknown fault profile {profile!r}")


class EnvelopeFaultFilter:
    """Seeded drop/duplicate filter for protocol envelopes.

    Installed via ``Network.set_drop_filter``.  Duplication re-sends the same
    payload once; a re-entrancy flag lets the nested send pass through
    untouched.  All decisions come from one seeded RNG stream and nothing
    depends on object identity, so two runs of the same scenario inject the
    exact same fault schedule (the replay/shrink contract).
    """

    def __init__(self, network, rate: float, seed: int, mode: str) -> None:
        if mode not in ("drop", "dup"):
            raise ValueError(f"unknown fault mode {mode!r}")
        self._network = network
        self._rate = float(rate)
        self._rng = random.Random(seed)
        self._mode = mode
        self._kinds = _DROPPABLE_ENVELOPES if mode == "drop" else _DUPLICABLE_ENVELOPES
        self._resending = False

    def __call__(self, src, dst, payload) -> bool:
        if self._resending or not isinstance(payload, self._kinds):
            return False
        if self._rng.random() >= self._rate:
            return False
        if self._mode == "drop":
            return True
        self._resending = True
        try:
            self._network.send(src, dst, payload)
        finally:
            self._resending = False
        return False
