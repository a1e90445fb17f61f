"""Serializable fuzz scenarios (schedules).

A :class:`FuzzScenario` pins *everything* that determines a run: the overlay
rank order, the latency geometry, the network jitter seed, the fault profile
(and its seed), explicit client submissions with virtual-time offsets, and
scripted crash/restart events.  Two runs of the same scenario are
bit-identical, which is what makes shrinking and checked-in regression
schedules possible.

Scenarios serialize to plain JSON (``to_dict`` / ``from_dict`` /
``save`` / ``load``) so a shrunk failing schedule can be committed under
``tests/regression/schedules/`` and replayed forever.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Dict, Optional, Tuple

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
class Crash:
    """A scripted crash of replica ``replica`` of group ``group`` at ``at_ms``."""

    at_ms: float
    replica: int
    group: GroupId = 0


@dataclass(frozen=True)
class Restart:
    """A scripted reboot of crashed replica ``replica`` of group ``group`` at
    ``at_ms``.

    The replica comes back with only its persisted state (its WALs)
    and must rejoin via replay + peer catch-up; a no-op if the replica is
    not down at ``at_ms``.
    """

    at_ms: float
    replica: int
    group: GroupId = 0


@dataclass(frozen=True)
class FuzzScenario:
    """A fully deterministic schedule for one simulated run."""

    name: str
    order: Tuple[GroupId, ...]
    submissions: Tuple[Submission, ...]
    latency: str = "uniform"          # "uniform" | "aws"
    uniform_ms: float = 40.0
    jitter_ms: float = 2.0
    net_seed: int = 0
    profile: str = "none"             # see repro.fuzz.profiles.PROFILES
    profile_seed: int = 0
    profile_rate: float = 0.0         # loss/duplication probability
    gc_interval_ms: Optional[float] = None
    crashes: Tuple[Crash, ...] = ()
    #: Scripted reboots of crashed replicas (crash-restart profile).  Old
    #: schedules deserialize to () — no restarts, unchanged behaviour.
    restarts: Tuple[Restart, ...] = ()
    #: Replicas per group: above 1 every group of the scenario is hosted as a
    #: :class:`~repro.smr.replica.ReplicatedGroup` (a multi-Paxos log each).
    replication_factor: int = 1
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
    #: bit-identical to the unbatched client.
    batch_window: int = 1
    #: Time trigger closing a partially filled batch window (virtual ms).
    batch_delay_ms: float = 5.0

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
        # Keys a schedule predates (``group`` of a crash, say) take the
        # dataclass defaults, so committed schedules load unchanged.
        data["submissions"] = tuple(
            Submission(**{**s, "dst": tuple(s["dst"])}) for s in data["submissions"]
        )
        # A key no field reads any more loads only while it is empty: a
        # schedule that used it cannot be replayed without it.
        for key in data.keys() - {f.name for f in fields(FuzzScenario)}:
            if data.pop(key):
                raise ValueError(f"scenario sets {key!r}, which no run can replay")
        data["crashes"] = tuple(Crash(**c) for c in data.get("crashes", ()))
        data["restarts"] = tuple(Restart(**r) for r in data.get("restarts", ()))
        return FuzzScenario(**data)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))

    @staticmethod
    def load(path) -> "FuzzScenario":
        return FuzzScenario.from_dict(json.loads(Path(path).read_text()))
