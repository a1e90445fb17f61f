"""Multi-Paxos replicated log.

A group in FlexCast (and in the baseline protocols) is "a reliable entity
whose logic is replicated within the group using state machine replication"
(§4.4).  :class:`MultiPaxosReplica` provides that substrate: a set of replicas
agree on a totally ordered log of commands; each replica applies committed
commands, in log order, to an application callback.

Design points (kept simple on purpose — this is the substrate, not the paper's
contribution):

* a stable leader (lowest-id live replica) runs phase 1 **once per
  leadership**: one ``Prepare`` asks every acceptor for a log-wide promise and
  for what it has accepted above its applied prefix; after a quorum the
  leader re-proposes the highest-ballot accepted value of every undecided
  instance it was told about, and from then on every command is a bare
  ``Accept`` at the leadership ballot.  Followers forward client commands to
  the leader;
* every replica is also an acceptor and a learner;
* the value crosses the wire once, in the ``Accept``: ``Accepted`` and the
  leader's ``Commit(instance, ballot)`` name it, and a follower decides from
  the entry it already accepted (or, if it missed the ``Accept``, fetches the
  decision by catch-up);
* below ``apply`` a value is its JSON text (``encode_value``): what a WAL
  record and a frame carry beside their own small JSON, and what a catch-up
  chunk is measured in;
* every replica keeps two WALs in its ``storage``: the acceptor's and a
  commit log.  The commit log records such a decision as a reference to the
  acceptor's record; a full ``["c", instance, text]`` record is written only
  for decisions learned by catch-up;
* an applied instance lives in the two WALs alone: memory holds the
  un-applied window, and catch-up (and :attr:`log`) read the applied prefix
  back from the files, a chunk of text at a time;
* a ``Nack`` ends a leadership; leader failure is handled by an explicit
  ``mark_failed`` trigger (tests, the supervisor's admin plane).
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Deque, Dict, Hashable, Iterator, List, Optional, Sequence, Set,
    Tuple,
)

from ..core.message import record
from ..jsontext import json_text, json_value
from ..obs.registry import MetricsRegistry
from ..sim.network import payload_size
from ..sim.transport import Transport
from ..storage.base import Storage
from .paxos import (
    ZERO_BALLOT, Accept, Accepted, Acceptor, Ballot, Nack, Prepare, Promise, stored_text,
)

_LOG = logging.getLogger(__name__)

ReplicaId = Hashable
ApplyCallback = Callable[[int, Any], None]


class UnreadableValue(ValueError):
    """A value's text does not decode to a value.  Raised where the text is
    read — for one that ``decode_value`` took unparsed from a WAL, that is
    when the value is applied."""


@record
@dataclass(frozen=True, slots=True)
class ClientCommand:
    """A command submitted to the replicated log."""

    payload: Any
    kind: str = field(default="smr-command", init=False)

    def size_bytes(self) -> int:
        return 32 + payload_size(self.payload)


@record
@dataclass(frozen=True, slots=True)
class Commit:
    """Leader -> followers: what was accepted for ``instance`` at ``ballot``
    (or any later ballot: those carry the same value) is decided."""

    instance: int
    ballot: Ballot
    kind: str = field(default="smr-commit", init=False)

    def size_bytes(self) -> int:
        return 48


@record
@dataclass(frozen=True, slots=True)
class Heartbeat:
    """Leader liveness signal (also re-announces the current leader)."""

    leader: ReplicaId
    kind: str = field(default="smr-heartbeat", init=False)

    def size_bytes(self) -> int:
        return 24


@record
@dataclass(frozen=True, slots=True)
class CatchupRequest:
    """Rejoining replica -> peer: send me every decision from ``from_instance``."""

    from_instance: int
    from_replica: ReplicaId
    kind: str = field(default="smr-catchup", init=False)

    def size_bytes(self) -> int:
        return 32


# Decisions per CatchupReply, and the bytes of value text at which a reply
# closes early; the decision that crosses it still goes.  A rejoining replica
# that lapsed for hundreds of thousands of instances must not receive them as
# one message, nor 2,048 large values as one: over the wire transport such a
# reply would exceed the frame-size cap.
# Chunks are applied independently (``_learn`` is idempotent and
# order-tolerant), so losing one chunk degrades to a smaller catch-up, never
# a corrupt one.
CATCHUP_CHUNK = 2048
CATCHUP_CHUNK_BYTES = 2 * 1024 * 1024


@record
@dataclass(frozen=True, slots=True)
class CatchupReply:
    """Peer -> rejoining replica: the requested ``(instance, value)`` decisions."""

    entries: Tuple[Tuple[int, Any], ...]
    kind: str = field(default="smr-catchup-reply", init=False)

    def size_bytes(self) -> int:
        return 32 + sum(12 + payload_size(value) for _, value in self.entries)


class MultiPaxosReplica:
    """One replica of a replicated log.

    Parameters
    ----------
    replica_id:
        This replica's id (hashable; ordering of ids defines the default
        leader — the smallest id).
    peers:
        Ids of *all* replicas in the group, including this one.
    transport:
        Outbound channel to the other replicas.
    apply:
        Callback ``apply(instance, command_payload)`` invoked exactly once per
        committed log position, in order.
    storage:
        Where the replica keeps its WALs, ``<replica_id>.acceptor`` and
        ``<replica_id>.log``; a replica built on a storage that already holds
        them replays them first.
    encode_value, decode_value:
        The value codec: a value to its JSON text (``bytes``) and back.
        Plain JSON by default, fine for JSON-able commands.
    """

    def __init__(
        self,
        replica_id: ReplicaId,
        peers: Sequence[ReplicaId],
        transport: Transport,
        apply: ApplyCallback,
        storage: Storage,
        encode_value: Optional[Callable[[Any], bytes]] = None,
        decode_value: Optional[Callable[[bytes], Any]] = None,
    ) -> None:
        if replica_id not in peers:
            raise ValueError("replica_id must be listed in peers")
        self.replica_id = replica_id
        self.peers: List[ReplicaId] = sorted(peers, key=str)
        self.transport = transport
        self._apply = apply
        self._others = [peer for peer in self.peers if peer != replica_id]
        self.quorum_size = len(self.peers) // 2 + 1

        self._encode_value = encode_value or json_text
        self._decode_value = decode_value or json_value
        # Durable acceptor state (Paxos safety across restarts) and a commit
        # log of decided instances (so a restarted replica re-applies its
        # prefix without touching the network).
        self._acceptor_wal = storage.wal(f"{replica_id}.acceptor")
        self._log_wal = storage.wal(f"{replica_id}.log")
        self.acceptor = Acceptor(
            replica_id,
            wal=self._acceptor_wal,
            encode_value=self._encode_value,
            decode_value=self._decode_value,
        )
        self._proposer_index = self.peers.index(replica_id)
        #: Ballot of this replica's latest leadership (none yet: ZERO_BALLOT).
        self.ballot: Ballot = ZERO_BALLOT
        #: Phase 1 of ``ballot`` is running: promises received so far.
        self._promises: Optional[Dict[ReplicaId, Promise]] = None
        #: Phase 1 of ``ballot`` completed and no Nack has ended it since.
        self._leading = False
        #: Highest ballot round a Nack has shown this replica.
        self._seen_round = -1
        #: instance -> (value, replicas that accepted it) for every instance
        #: this replica is proposing in at ``ballot``.
        self._proposers: Dict[int, Tuple[Any, Set[ReplicaId]]] = {}
        #: Where this leadership looks for its next free instance.
        self._next_instance = 0
        #: instance -> command this replica originally proposed there.  After
        #: a fail-over the new leader can be forced (by Paxos) to adopt an old
        #: accepted value for an instance; the command it meant to propose is
        #: then *displaced* and must be re-proposed at a fresh instance, or it
        #: would be silently lost.
        self._submitted: Dict[int, Any] = {}
        #: instance -> decided value, for the instances not yet applied: an
        #: applied one is read back from the WALs.
        self._decided: Dict[int, Any] = {}
        self._applied_up_to = -1
        #: Commands handed to this replica and not known decided, in
        #: submission order.  A leader's wait here for phase 1; a follower's
        #: are copies of what it forwarded, to be re-proposed should it
        #: become the leader.
        self._pending_commands: Deque[Any] = deque()
        #: Replicas believed to be alive (failure detection input).
        self.alive: Set[ReplicaId] = set(self.peers)
        self.stats = {
            "proposed": 0,
            "committed": 0,
            "forwarded": 0,
            # Leaderships ended by an acceptor that had promised a higher
            # ballot, and how many of those this replica answered with a new
            # leadership of its own (contention / fail-over pressure).
            "nacks": 0,
            "ballot_retries": 0,
            # Completed phase 1s.  Rising with "committed" flat is a duel.
            "leaderships": 0,
            # Catch-up traffic: requests this replica answered and entry
            # volume in both directions (rejoin cost).
            "catchup_served": 0,
            "catchup_entries_sent": 0,
            "catchup_entries_applied": 0,
        }
        #: Log length recovered from the commit WAL at construction.
        self.recovered_instances = 0
        self._replay()

    def _replay(self) -> None:
        """Re-apply the decided prefix of the commit WAL, as it is read.

        The acceptor has replayed its own WAL by now, which a reference
        record needs: ``["c", instance]`` stands for the value accepted at
        ``instance``.  The two files fsync independently, so the accept a
        reference points at may not have reached the disk; the log then ends
        there exactly as at a torn tail, and catch-up refills the rest.  So
        it does before an instance whose value text turns out not to be a
        value (a record damaged past its checksum, or written by code whose
        wire schema this one does not read); that cut drops decisions the
        file held, so it is logged as a warning.
        """
        log_wal = self._log_wal
        records = log_wal.records()
        try:
            for position, record in enumerate(records):
                if record[0] != "c":
                    raise ValueError(f"unknown commit WAL record kind: {record[0]!r}")
                if len(record) > 2:
                    value = self._decode_value(stored_text(record[2]))
                else:
                    accepted = self.acceptor.accepted(record[1])
                    if accepted is None:
                        records = records[:position]
                        log_wal.reset(records)
                        break
                    value = accepted[1]
                self._decided[record[1]] = value
                self._apply_decided()
        except UnreadableValue as exc:
            bad = self._applied_up_to
            self._applied_up_to -= 1
            self._decided = {i: v for i, v in self._decided.items() if i < bad}
            kept = [record for record in records if record[1] < bad]
            _LOG.warning(
                "replica %s: commit WAL cut before instance %d, %d of %d records "
                "dropped: %s (%r)", self.replica_id, bad, len(records) - len(kept),
                len(records), exc, exc.__cause__,
            )
            records = kept
            log_wal.reset(records)
        instances = {record[1] for record in records}
        if instances:
            self._next_instance = max(instances) + 1
        self.recovered_instances = len(instances)

    # ---------------------------------------------------------- observability
    def register_metrics(
        self, registry: MetricsRegistry, labels: Optional[Dict[str, str]] = None
    ) -> None:
        """Expose this replica's counters on ``registry`` (repro.obs).

        All series are pull-based callbacks over :attr:`stats` and the log
        book-keeping the replica already maintains, so registration adds no
        hot-path cost.  Ballot churn shows up as ``smr_ballot_retries_total``
        and ``smr_leaderships_total`` (who led when: ``smr_ballot_round``);
        catch-up traffic as the three ``smr_catchup_*_total`` counters.
        """
        labels = dict(labels or {})
        labels.setdefault("replica", str(self.replica_id))
        for key in self.stats:
            registry.counter(
                f"smr_{key}_total",
                f"Multi-Paxos replica event count: {key.replace('_', ' ')}.",
                labels,
                fn=(lambda k=key: self.stats[k]),
            )
        registry.gauge(
            "smr_decided_instances",
            "Log instances this replica knows the decision for: the applied "
            "prefix and the decided instances above it.",
            labels,
            fn=lambda: len(self._decided) + self.applied_count,
        )
        registry.gauge(
            "smr_decided_in_memory",
            "Decided values this replica holds in memory: those not yet "
            "applied.",
            labels,
            fn=lambda: len(self._decided),
        )
        registry.gauge(
            "smr_applied_up_to",
            "Highest contiguously applied log instance (-1 = none).",
            labels,
            fn=lambda: self._applied_up_to,
        )
        registry.gauge(
            "smr_open_proposers",
            "Paxos instances this replica is still driving.",
            labels,
            fn=lambda: len(self._proposers),
        )
        registry.gauge(
            "smr_pending_commands",
            "Commands stashed awaiting forwarding / re-proposal.",
            labels,
            fn=lambda: len(self._pending_commands),
        )
        registry.gauge(
            "smr_ballot_round",
            "Round of this replica's latest leadership ballot (-1 = never led).",
            labels,
            fn=lambda: self.ballot.round,
        )

    # ------------------------------------------------------------- leadership
    @property
    def leader(self) -> ReplicaId:
        """Current leader: the smallest replica id believed alive."""
        live = [p for p in self.peers if p in self.alive]
        return live[0] if live else self.replica_id

    @property
    def is_leader(self) -> bool:
        return self.leader == self.replica_id

    def mark_failed(self, replica: ReplicaId) -> None:
        """Failure-detector input: ``replica`` is considered crashed.

        If the crashed replica was the leader, this replica may become the new
        leader: it re-proposes the commands it had forwarded, and its phase 1
        brings back whatever the old leader left accepted but undecided.
        """
        self.alive.discard(replica)
        if self.is_leader:
            if self._leading:
                self._drain()
            elif self._promises is None:
                self._start_leadership()

    def mark_alive(self, replica: ReplicaId) -> None:
        self.alive.add(replica)
        if not self.is_leader and self._promises is not None:
            # Demoted during phase 1: nothing was proposed at that ballot, so
            # drop it and hand what queued behind it to the leader.
            self._promises = None
            for command in self._pending_commands:
                self._forward(command)

    def rejoin(self) -> None:
        """Announce this (restarted) replica and pull the decided suffix.

        Called after construction replayed the local WALs: peers learn we are
        alive again (their failure detectors re-admit us, possibly handing
        leadership back), and a catch-up round fills every decision made
        while we were down.  Both messages are idempotent, so racing with
        in-flight traffic is harmless.
        """
        for peer in self._others:
            self.transport.send(peer, Heartbeat(leader=self.replica_id))
            self.transport.send(
                peer,
                CatchupRequest(
                    from_instance=self.applied_count, from_replica=self.replica_id
                ),
            )

    def _start_leadership(self) -> None:
        """Phase 1, once: ask every acceptor for one log-wide promise.

        The round is above this replica's own promise (which its acceptor
        WAL keeps across restarts) and above every round a Nack has shown it,
        so a restarted replica never reuses a ballot it may already have
        proposed a value under.
        """
        self.ballot = Ballot(
            max(self._seen_round, self.acceptor.promised.round) + 1,
            self._proposer_index,
        )
        self._promises = {}
        prepare = Prepare(instance=self.applied_count, ballot=self.ballot)
        for peer in self._others:
            if peer in self.alive:
                self.transport.send(peer, prepare)
        # The proposer is its own acceptor, and cannot refuse this round.
        self._on_promise(self.acceptor.on_prepare(prepare, self.applied_count))

    # ------------------------------------------------------------ client path
    def submit(self, command: Any) -> None:
        """Submit a command for total ordering.

        A leader proposes it at the next free instance of its leadership
        (after phase 1, which the first command starts and later ones queue
        behind); followers forward it to the leader (and stash a copy so it
        can be re-proposed after fail-over).
        """
        self._pending_commands.append(command)
        if not self.is_leader:
            self._forward(command)
        elif self._leading:
            self._drain()
        elif self._promises is None:
            self._start_leadership()

    def _forward(self, command: Any) -> None:
        self.stats["forwarded"] += 1
        self.transport.send(self.leader, ClientCommand(payload=command))

    def _drain(self) -> None:
        """Propose pending commands, in order, for as long as this replica leads."""
        while self._pending_commands and self._leading:
            command = self._pending_commands.popleft()
            instance = max(self._next_instance, self.applied_count)
            while instance in self._decided or instance in self._proposers:
                instance += 1
            self._next_instance = instance + 1
            self._submitted[instance] = command
            nack = self._drive(instance, command)
            if nack is not None:
                # Our own acceptor refused, so nobody holds the command yet.
                del self._submitted[instance]
                self._pending_commands.appendleft(command)
                self._on_nack(nack)
                return
            self.stats["proposed"] += 1

    def _drive(self, instance: int, value: Any) -> Optional[Nack]:
        """Phase 2 for one instance at the leadership ballot.

        Our own acceptor goes first; if it has promised a higher ballot since
        phase 1 the leadership is over, nothing is sent and the Nack is
        returned.
        """
        accept = Accept(instance, self.ballot, value)
        reply = self.acceptor.on_accept(accept)
        if isinstance(reply, Nack):
            return reply
        self._proposers[instance] = (value, {self.replica_id})
        for peer in self._others:
            if peer in self.alive:
                # Crashed replicas are skipped; quorums among the survivors
                # are enough as long as a majority remains (Paxos guarantee).
                self.transport.send(peer, accept)
        if self.quorum_size == 1:
            self._chosen(instance, value)
        return None

    # -------------------------------------------------------------- messaging
    def on_message(self, sender: ReplicaId, message: Any) -> None:
        """Network entry point: dispatch every SMR-related message."""
        if isinstance(message, Accept):
            self.transport.send(sender, self.acceptor.on_accept(message))
            if message.instance <= self._applied_up_to:
                # A new leader re-drove an instance applied here: the WALs
                # already hold its (one possible) value.
                self.acceptor.forget(message.instance)
        elif isinstance(message, Accepted):
            self._on_accepted(message)
        elif isinstance(message, Commit):
            self._on_commit(sender, message)
        elif isinstance(message, ClientCommand):
            self.submit(message.payload)
        elif isinstance(message, Prepare):
            self.transport.send(
                sender, self.acceptor.on_prepare(message, self.applied_count)
            )
        elif isinstance(message, Promise):
            self._on_promise(message)
        elif isinstance(message, Nack):
            self._on_nack(message)
        elif isinstance(message, Heartbeat):
            self.mark_alive(message.leader)
        elif isinstance(message, CatchupRequest):
            self._serve_catchup(message)
        elif isinstance(message, CatchupReply):
            self.stats["catchup_entries_applied"] += len(message.entries)
            for instance, value in message.entries:
                self._learn(instance, value)
        else:
            raise TypeError(f"unexpected SMR message {message!r}")

    def _serve_catchup(self, request: CatchupRequest) -> None:
        """Send every decision from ``request.from_instance`` on, in chunks:
        the one being filled is all the value text held for it at a time."""
        entries: List[Tuple[int, Any]] = []
        size = sent = 0
        for instance, text in self._stored(request.from_instance):
            entries.append((instance, self._decode_value(text)))
            size += len(text)
            if len(entries) >= CATCHUP_CHUNK or size >= CATCHUP_CHUNK_BYTES:
                sent += self._reply(request.from_replica, entries)
                entries, size = [], 0
        if entries:
            sent += self._reply(request.from_replica, entries)
        if sent:
            self.stats["catchup_served"] += 1
            self.stats["catchup_entries_sent"] += sent

    def _reply(self, to: ReplicaId, entries: List[Tuple[int, Any]]) -> int:
        self.transport.send(to, CatchupReply(entries=tuple(entries)))
        return len(entries)

    def _stored(self, start: int) -> Iterator[Tuple[int, bytes]]:
        """``(instance, value text)`` of every decision from ``start`` on, in
        commit-log order, read from the WALs a record at a time.

        A reference names the last accept of its instance in the acceptor
        WAL; one pass over that file finds where each is (positions, not
        values), and each is read when its turn in the commit log comes.
        """
        last_accept: Dict[int, int] = {}
        for position, record in self._acceptor_wal.scan():
            if record[0] == "a" and record[1] >= start:
                last_accept[record[1]] = position
        for _, record in self._log_wal.scan():
            instance = record[1]
            if instance < start:
                continue
            if len(record) > 2:
                yield instance, stored_text(record[2])
            elif instance in last_accept:
                accept = self._acceptor_wal.read(last_accept[instance])
                yield instance, stored_text(accept[3])

    # ------------------------------------------------------------- proposer side
    def _on_promise(self, promise: Promise) -> None:
        if self._promises is None or promise.ballot != self.ballot:
            return
        self._promises[promise.from_replica] = promise
        if len(self._promises) >= self.quorum_size:
            promises, self._promises = list(self._promises.values()), None
            self._lead(promises)

    def _lead(self, promises: List[Promise]) -> None:
        """Phase 1 is complete: recover what earlier leaders left, then lead."""
        self._leading = True
        self.stats["leaderships"] += 1
        # Every acceptor answered from the end of its applied prefix, so
        # everything below the highest such bound is decided.  What this
        # replica lacks of it is fetched, never proposed into.
        ahead = max(promises, key=lambda promise: promise.instance)
        start = ahead.instance
        if start > self.applied_count:
            self.transport.send(
                ahead.from_replica,
                CatchupRequest(
                    from_instance=self.applied_count, from_replica=self.replica_id
                ),
            )
        # Above it, an instance some quorum member accepted a value in is
        # re-driven with the highest-ballot one; the rest are free.
        adopted: Dict[int, Tuple[Ballot, Any]] = {}
        for promise in promises:
            for instance, ballot, value in promise.accepted:
                if (
                    instance < start
                    or instance <= self._applied_up_to
                    or instance in self._decided
                ):
                    continue
                if instance not in adopted or adopted[instance][0] < ballot:
                    adopted[instance] = (ballot, value)
        self._next_instance = start
        # A pending command that phase 1 brought back (forwarded to the old
        # leader, accepted, not decided) is already placed.
        back = [value for _, value in adopted.values()]
        self._pending_commands = deque(
            c for c in self._pending_commands if c not in back
        )
        for instance in sorted(adopted):
            nack = self._drive(instance, adopted[instance][1])
            if nack is not None:
                self._on_nack(nack)
                return
        self._drain()

    def _on_accepted(self, accepted: Accepted) -> None:
        slot = self._proposers.get(accepted.instance)
        if slot is None or accepted.ballot != self.ballot:
            return
        slot[1].add(accepted.from_replica)
        if len(slot[1]) >= self.quorum_size:
            self._chosen(accepted.instance, slot[0])

    def _chosen(self, instance: int, value: Any) -> None:
        commit = Commit(instance, self.ballot)
        self.stats["committed"] += 1
        try:
            self._learn(instance, value)
        finally:
            # Decided is decided, even if applying it raised here: followers
            # must learn it (and raise alike), not wait on a hole forever.
            for peer in self._others:
                if peer in self.alive:
                    self.transport.send(peer, commit)

    def _on_nack(self, nack: Nack) -> None:
        """A higher ballot exists: this leadership (or its phase 1) is over.

        A refused ballot is usually refused by several acceptors; only the
        first nack finds it still running.  The rest would each outbid the
        new leadership already under way.
        """
        if nack.ballot != self.ballot or not (self._leading or self._promises is not None):
            return
        self.stats["nacks"] += 1
        self._seen_round = max(self._seen_round, nack.promised.round)
        self._leading = False
        self._promises = None
        # What was in flight stays accepted wherever it was accepted: the
        # next phase 1 (ours or the rival's) brings it back, and _learn
        # re-submits our command if another value takes its instance.
        self._proposers.clear()
        if self.is_leader:
            self.stats["ballot_retries"] += 1
            self._start_leadership()

    # ---------------------------------------------------------------- learner
    def _on_commit(self, sender: ReplicaId, commit: Commit) -> None:
        if commit.instance <= self._applied_up_to or commit.instance in self._decided:
            return
        accepted = self.acceptor.accepted(commit.instance)
        if accepted is not None and commit.ballot <= accepted[0]:
            # Chosen at commit.ballot, so every later ballot carried the same
            # value: what we hold *is* the decision.
            self._learn(commit.instance, accepted[1])
        else:
            # We missed the Accept (restart, dropped connection): only the
            # sender's decided log can tell us the value.
            self.transport.send(
                sender,
                CatchupRequest(
                    from_instance=commit.instance, from_replica=self.replica_id
                ),
            )

    def _learn(self, instance: int, value: Any) -> None:
        if instance <= self._applied_up_to or instance in self._decided:
            return
        self._decided[instance] = value
        # Decided is decided, whoever drove it: stop driving.  Late replies
        # for the instance find nothing in flight and are dropped.
        self._proposers.pop(instance, None)
        # Persist the decision before applying it: after a restart the
        # replica replays exactly the prefix it already exposed.  When the
        # acceptor holds this very value, name it instead of writing it a
        # second time.
        if self.acceptor.accepted_value(instance) is value:
            self._log_wal.append(["c", instance])
        else:
            self._log_wal.append(["c", instance, self._encode_value(value)])
        if self._pending_commands:
            # Once decided, a command must not be proposed again.
            self._pending_commands = deque(
                c for c in self._pending_commands if c != value
            )
        self._apply_decided()
        placed = self._submitted.pop(instance, None)
        if placed is not value and self._submitted:
            # Decided where this replica did not place it (another leader's
            # placement, or one phase 1 brought back): our placement of the
            # command elsewhere is retired, so that if another value takes
            # that instance the command is not proposed a second time.
            for other in [i for i, command in self._submitted.items() if command == value]:
                del self._submitted[other]
        # If Paxos forced this instance to decide an *older* accepted value,
        # the command we meant to place here was displaced: give it a fresh
        # instance.
        if placed is not None and placed != value:
            self.submit(placed)

    def _apply_decided(self) -> None:
        """Apply every contiguous decided instance exactly once, in order.

        The commit log holds the instance by now, so an applied value leaves
        memory: ``_decided`` and the acceptor let it go.
        """
        decided = self._decided
        while self._applied_up_to + 1 in decided:
            self._applied_up_to += 1
            instance = self._applied_up_to
            # Let go first: an apply that raises still applied it.
            self.acceptor.forget(instance)
            self._apply(instance, decided.pop(instance))

    # ------------------------------------------------------------- inspection
    @property
    def applied_count(self) -> int:
        """Length of the applied prefix (``len(log)`` without building it)."""
        return self._applied_up_to + 1

    @property
    def log(self) -> List[Any]:
        """The applied prefix of the replicated log (tests, inspection)."""
        applied = self.applied_count
        texts = {i: text for i, text in self._stored(0) if i < applied}
        return [self._decode_value(texts[i]) for i in range(applied)]
