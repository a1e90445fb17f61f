"""Serializable fuzz scenarios (schedules).

A :class:`FuzzScenario` pins *everything* that determines a run: the overlay
rank order, the latency geometry, the network jitter seed, the fault profile
(and its seed), explicit client submissions with virtual-time offsets, and
scripted reconfiguration/crash events.  Two runs of the same scenario are
bit-identical, which is what makes shrinking and checked-in regression
schedules possible.

Scenarios serialize to plain JSON (``to_dict`` / ``from_dict`` /
``save`` / ``load``) so a shrunk failing schedule can be committed under
``tests/regression/schedules/`` and replayed forever.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

from ..overlay.base import GroupId

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Submission:
    """One client submission: multicast ``msg_id`` to ``dst`` at ``at_ms``."""

    at_ms: float
    msg_id: str
    dst: Tuple[GroupId, ...]
    payload_bytes: int = 64
    is_flush: bool = False


@dataclass(frozen=True)
class Reconfig:
    """A scripted mid-run overlay switch to ``order`` starting at ``at_ms``."""

    at_ms: float
    order: Tuple[GroupId, ...]


@dataclass(frozen=True)
class Crash:
    """A scripted replica crash (``replica`` index) at ``at_ms``."""

    at_ms: float
    replica: int


@dataclass(frozen=True)
class Restart:
    """A scripted reboot of crashed replica ``replica`` at ``at_ms``.

    The replica comes back with only its persisted state (its WALs)
    and must rejoin via replay + peer catch-up; a no-op if the replica is
    not down at ``at_ms``.
    """

    at_ms: float
    replica: int


@dataclass(frozen=True)
class FuzzScenario:
    """A fully deterministic schedule for one simulated run."""

    name: str
    order: Tuple[GroupId, ...]
    submissions: Tuple[Submission, ...]
    latency: str = "uniform"          # "uniform" | "aws" | "clustered"
    uniform_ms: float = 40.0
    jitter_ms: float = 2.0
    net_seed: int = 0
    profile: str = "none"             # see repro.fuzz.profiles.PROFILES
    profile_seed: int = 0
    profile_rate: float = 0.0         # loss/duplication probability
    gc_interval_ms: Optional[float] = None
    reconfigs: Tuple[Reconfig, ...] = ()
    crashes: Tuple[Crash, ...] = ()
    #: Scripted reboots of crashed replicas (crash-restart profile).  Old
    #: schedules deserialize to () — no restarts, unchanged behaviour.
    restarts: Tuple[Restart, ...] = ()
    replication_factor: int = 1       # >1 switches the harness to SMR mode
    #: Bounded client resubmit-on-timeout attempts per submission (0 = no
    #: retries).  With retries on, crash runs can assert every submission is
    #: delivered: re-submissions are idempotent end to end.
    client_retries: int = 0
    #: Safety-only mode: the profile makes liveness impossible (e.g. loss on
    #: channels FlexCast assumes reliable), so the oracle checks that what
    #: *was* delivered is consistent, not that everything was delivered.
    expect_all_delivered: bool = True
    #: Expose every global message to the Skeen-timestamp authority
    #: (``exposure="all"``, see repro.fuzz.harness.run_scenario); off, the
    #: harness declares the scenario's own shapes instead.  The field keeps
    #: the name committed schedules serialize it under.
    hybrid: bool = False
    #: Client-side batching window (repro.core.batching.BatchingClient):
    #: same-destination submissions are coalesced up to this many per
    #: FlexCastBatch.  ``1`` (the default, and the value every pre-batching
    #: schedule deserializes to) disables batching — behaviour is then
    #: bit-identical to the unbatched client.  Ignored by crash-profile
    #: (SMR) runs, which exercise the replication layer's own path.
    batch_window: int = 1
    #: Time trigger closing a partially filled batch window (virtual ms).
    batch_delay_ms: float = 5.0

    # ------------------------------------------------------------- transforms
    def with_submissions(self, submissions: Sequence[Submission]) -> "FuzzScenario":
        return replace(self, submissions=tuple(submissions))

    def with_order(self, order: Sequence[GroupId]) -> "FuzzScenario":
        return replace(self, order=tuple(order))

    @property
    def used_groups(self) -> Tuple[GroupId, ...]:
        used = set()
        for sub in self.submissions:
            used.update(sub.dst)
        for rec in self.reconfigs:
            used.update(rec.order)
        return tuple(g for g in self.order if g in used)

    # ---------------------------------------------------------- serialization
    def to_dict(self) -> Dict:
        data = asdict(self)
        data["version"] = SCHEMA_VERSION
        return data

    @staticmethod
    def from_dict(data: Dict) -> "FuzzScenario":
        data = dict(data)
        version = data.pop("version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ValueError(f"unsupported scenario schema version {version}")
        data["order"] = tuple(data["order"])
        data["submissions"] = tuple(
            Submission(
                at_ms=s["at_ms"],
                msg_id=s["msg_id"],
                dst=tuple(s["dst"]),
                payload_bytes=s.get("payload_bytes", 64),
                is_flush=s.get("is_flush", False),
            )
            for s in data["submissions"]
        )
        data["reconfigs"] = tuple(
            Reconfig(at_ms=r["at_ms"], order=tuple(r["order"]))
            for r in data.get("reconfigs", ())
        )
        data["crashes"] = tuple(
            Crash(at_ms=c["at_ms"], replica=c["replica"])
            for c in data.get("crashes", ())
        )
        data["restarts"] = tuple(
            Restart(at_ms=r["at_ms"], replica=r["replica"])
            for r in data.get("restarts", ())
        )
        return FuzzScenario(**data)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))

    @staticmethod
    def load(path) -> "FuzzScenario":
        return FuzzScenario.from_dict(json.loads(Path(path).read_text()))
