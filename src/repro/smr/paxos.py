"""Paxos roles for a replicated log: one promise per log, one accept per instance.

Paper §4.4: FlexCast (like the other atomic multicast protocols it is compared
against) tolerates failures by replicating each group with state machine
replication; the paper explicitly mentions Paxos as the consensus protocol
used inside a group.  This module holds the acceptor half of the multi-Paxos
log in :mod:`repro.smr.multipaxos` and the five messages of the synod
protocol as that log runs it: phase 1 (prepare/promise) covers *every*
instance from a given one on, phase 2 (accept/accepted) one instance.

The :class:`Acceptor` is a transport-agnostic state machine, deliberately
free of timers, that writes every promise and accept to its WAL before it
answers; leadership, retries and learning live one level up, in the replica
that hands it the WAL and its value codec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.message import record
from ..jsontext import json_text
from ..storage.base import WAL

ReplicaId = Any


def stored_text(stored: Any) -> bytes:
    """The value text of a WAL record: the line it was written on — or, from a
    file written when the value sat inside the record's JSON, that part
    dumped again (the same bytes: our JSON round-trips)."""
    return stored if type(stored) is bytes else json_text(stored)


@record
@dataclass(frozen=True, slots=True)
class Ballot:
    """A totally ordered ballot number: (round, proposer id)."""

    round: int
    proposer: int

    def __lt__(self, other: "Ballot") -> bool:
        return (self.round, self.proposer) < (other.round, other.proposer)

    def __le__(self, other: "Ballot") -> bool:
        return (self.round, self.proposer) <= (other.round, other.proposer)

    def next(self) -> "Ballot":
        return Ballot(self.round + 1, self.proposer)


#: The "no ballot yet" sentinel, smaller than every real ballot.
ZERO_BALLOT = Ballot(-1, -1)


# ------------------------------------------------------------------ wire types
@record
@dataclass(frozen=True, slots=True)
class Prepare:
    """Phase 1a: a new leader asks for one log-wide promise of ``ballot`` and
    for everything accepted from ``instance`` on."""

    instance: int
    ballot: Ballot
    kind: str = field(default="paxos-prepare", init=False)

    def size_bytes(self) -> int:
        return 48


@record
@dataclass(frozen=True, slots=True)
class Promise:
    """Phase 1b: an acceptor promises ``ballot`` for the whole log.

    ``accepted`` holds ``(instance, ballot, value)`` for every instance from
    ``instance`` on that the acceptor has accepted a value in.  ``instance``
    is where the answer starts: the prepare's, or the end of the acceptor's
    replica's applied prefix if that is higher — everything below it is
    decided, and the acceptor says so by not reporting it.
    """

    instance: int
    ballot: Ballot
    accepted: Tuple[Tuple[int, Ballot, Any], ...]
    from_replica: ReplicaId
    kind: str = field(default="paxos-promise", init=False)

    def size_bytes(self) -> int:
        from ..sim.network import payload_size

        return 64 + sum(24 + payload_size(value) for _, _, value in self.accepted)


@record
@dataclass(frozen=True, slots=True)
class Accept:
    """Phase 2a: the leader asks acceptors to accept ``value`` at ``ballot``."""

    instance: int
    ballot: Ballot
    value: Any
    kind: str = field(default="paxos-accept", init=False)

    def size_bytes(self) -> int:
        return 64


@record
@dataclass(frozen=True, slots=True)
class Accepted:
    """Phase 2b: an acceptor accepted the value it was sent at ``ballot``."""

    instance: int
    ballot: Ballot
    from_replica: ReplicaId
    kind: str = field(default="paxos-accepted", init=False)

    def size_bytes(self) -> int:
        return 48


@record
@dataclass(frozen=True, slots=True)
class Nack:
    """An acceptor refused a ballot because it promised a higher one."""

    instance: int
    ballot: Ballot
    promised: Ballot
    from_replica: ReplicaId
    kind: str = field(default="paxos-nack", init=False)

    def size_bytes(self) -> int:
        return 48


# --------------------------------------------------------------------- acceptor
class Acceptor:
    """Paxos acceptor state for a sequence of instances.

    The promise is one ballot for the whole log; accepted values are kept per
    instance.  The ``wal`` satisfies the Paxos stable-storage requirement:
    ``promised``/``accepted`` transitions are written to it *before* the
    corresponding Promise/Accepted reply is handed back to the caller, and a
    restarted acceptor replays it on construction — so it can never promise
    or accept below a ballot it already answered for, no matter how many
    times it crashes.

    WAL records (JSON-able):

    * ``["p", [round, proposer]]`` — promise made (files written before the
      promise became log-wide hold ``["p", instance, [round, proposer]]``;
      replaying those as the highest of them only makes the acceptor refuse
      more);
    * ``["a", instance, [round, proposer], text]`` — value accepted (also
      implies the promise, mirroring :meth:`on_accept`).

    The WAL is only ever appended to, so an instance's last ``a`` record is
    its current accept — what a commit log's ``["c", instance]`` names, and
    where its replica reads an applied value back from once :meth:`forget`
    let it go from memory.

    ``encode_value``/``decode_value`` are the replica's value codec: they
    translate accepted values to/from their JSON text (``bytes``).  The text
    is what a record holds, handed to the WAL as it is; a value that
    remembers its text (:class:`~repro.smr.replica.Turn`) is therefore never
    serialised to be stored, and ``decode_value`` may put off the parse until
    somebody reads the value.
    """

    def __init__(
        self,
        replica_id: ReplicaId,
        wal: WAL,
        encode_value: Callable[[Any], bytes],
        decode_value: Callable[[bytes], Any],
    ) -> None:
        self.replica_id = replica_id
        #: Highest ballot promised, for every instance of the log.
        self.promised: Ballot = ZERO_BALLOT
        self._accepted: Dict[int, Tuple[Ballot, Any]] = {}
        # Only ever appended to: an applied instance's value is kept here
        # alone, where its replica's commit-log reference points.
        self._wal = wal
        self._encode = encode_value
        self._decode = decode_value
        for record in wal.records():
            self._replay(record)

    # ------------------------------------------------------------- durability
    def _replay(self, record: List[Any]) -> None:
        kind = record[0]
        if kind not in ("p", "a"):
            raise ValueError(f"unknown acceptor WAL record kind: {kind!r}")
        ballot = Ballot(*(record[-1] if kind == "p" else record[2]))
        if self.promised < ballot:
            self.promised = ballot
        if kind == "a":
            self._accepted[record[1]] = (ballot, self._decode(stored_text(record[3])))

    def forget(self, instance: int) -> None:
        """``instance`` is applied and on its replica's commit log: let the
        value go from memory (the WAL keeps it).  A promise never reports it —
        it starts at the applied prefix."""
        self._accepted.pop(instance, None)

    # --------------------------------------------------------------- protocol
    def on_prepare(self, prepare: Prepare, applied: int = 0):
        """Handle phase 1a; returns a :class:`Promise` or a :class:`Nack`.

        ``applied`` is the length of the applied prefix of the replica this
        acceptor belongs to: the promise reports accepted values from there
        (or from ``prepare.instance``, if higher), so its size is bounded by
        the un-applied window rather than by the length of the log.
        """
        if prepare.ballot <= self.promised:
            return Nack(
                instance=prepare.instance,
                ballot=prepare.ballot,
                promised=self.promised,
                from_replica=self.replica_id,
            )
        self.promised = prepare.ballot
        self._wal.append(["p", [prepare.ballot.round, prepare.ballot.proposer]])
        start = max(prepare.instance, applied)
        return Promise(
            instance=start,
            ballot=prepare.ballot,
            accepted=tuple(
                (instance, *self._accepted[instance])
                for instance in sorted(i for i in self._accepted if i >= start)
            ),
            from_replica=self.replica_id,
        )

    def on_accept(self, accept: Accept):
        """Handle phase 2a; returns an :class:`Accepted` or a :class:`Nack`."""
        if accept.ballot < self.promised:
            return Nack(
                instance=accept.instance,
                ballot=accept.ballot,
                promised=self.promised,
                from_replica=self.replica_id,
            )
        self.promised = accept.ballot
        self._accepted[accept.instance] = (accept.ballot, accept.value)
        self._wal.append(
            [
                "a",
                accept.instance,
                [accept.ballot.round, accept.ballot.proposer],
                self._encode(accept.value),
            ]
        )
        return Accepted(accept.instance, accept.ballot, self.replica_id)

    def accepted(self, instance: int) -> Optional[Tuple[Ballot, Any]]:
        """The ``(ballot, value)`` last accepted for ``instance``, if any."""
        return self._accepted.get(instance)

    def accepted_value(self, instance: int) -> Optional[Any]:
        entry = self._accepted.get(instance)
        return entry[1] if entry else None
