"""Multi-Paxos replicated log.

A group in FlexCast (and in the baseline protocols) is "a reliable entity
whose logic is replicated within the group using state machine replication"
(§4.4).  :class:`MultiPaxosReplica` provides that substrate: a set of replicas
agree on a totally ordered log of commands; each replica applies committed
commands, in log order, to an application callback.

Design points (kept simple on purpose — this is the substrate, not the paper's
contribution):

* a stable leader (lowest-id live replica) runs phase 1 lazily per instance
  and drives phase 2; followers forward client commands to the leader;
* every replica is also an acceptor and a learner;
* commit notifications are piggybacked as explicit ``Commit`` messages from
  the leader, so followers apply commands without observing quorums
  themselves;
* leader failure is handled by an explicit ``fail_over`` trigger (tests) or by
  a heartbeat timeout when running on the simulator with timers enabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Set, Tuple

from ..obs.registry import MetricsRegistry
from ..sim.transport import Transport
from .paxos import Accept, Accepted, Acceptor, Ballot, Nack, Prepare, Promise, Proposer

ReplicaId = Hashable
ApplyCallback = Callable[[int, Any], None]


@dataclass(frozen=True)
class ClientCommand:
    """A command submitted to the replicated log."""

    payload: Any
    kind: str = field(default="smr-command", init=False)

    def size_bytes(self) -> int:
        from ..sim.network import payload_size

        return 32 + payload_size(self.payload)


@dataclass(frozen=True)
class Commit:
    """Leader -> followers: instance ``instance`` decided on ``value``."""

    instance: int
    value: Any
    kind: str = field(default="smr-commit", init=False)

    def size_bytes(self) -> int:
        from ..sim.network import payload_size

        return 40 + payload_size(self.value)


@dataclass(frozen=True)
class Heartbeat:
    """Leader liveness signal (also re-announces the current leader)."""

    leader: ReplicaId
    kind: str = field(default="smr-heartbeat", init=False)

    def size_bytes(self) -> int:
        return 24


@dataclass(frozen=True)
class CatchupRequest:
    """Rejoining replica -> peer: send me every decision from ``from_instance``."""

    from_instance: int
    from_replica: ReplicaId
    kind: str = field(default="smr-catchup", init=False)

    def size_bytes(self) -> int:
        return 32


# Decisions per CatchupReply.  A rejoining replica that lapsed for hundreds
# of thousands of instances must not receive them as one message: over the
# wire transport a single reply would exceed the frame-size cap.  Chunks are
# applied independently (``_learn`` is idempotent and order-tolerant), so
# losing one chunk degrades to a smaller catch-up, never a corrupt one.
CATCHUP_CHUNK = 2048


@dataclass(frozen=True)
class CatchupReply:
    """Peer -> rejoining replica: the requested ``(instance, value)`` decisions."""

    entries: Tuple[Tuple[int, Any], ...]
    kind: str = field(default="smr-catchup-reply", init=False)

    def size_bytes(self) -> int:
        from ..sim.network import payload_size

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
    """

    def __init__(
        self,
        replica_id: ReplicaId,
        peers: Sequence[ReplicaId],
        transport: Transport,
        apply: ApplyCallback,
        acceptor_wal: Optional[Any] = None,
        log_wal: Optional[Any] = None,
        encode_value: Optional[Callable[[Any], Any]] = None,
        decode_value: Optional[Callable[[Any], Any]] = None,
    ) -> None:
        if replica_id not in peers:
            raise ValueError("replica_id must be listed in peers")
        self.replica_id = replica_id
        self.peers: List[ReplicaId] = sorted(peers, key=str)
        self.transport = transport
        self._apply = apply
        self.quorum_size = len(self.peers) // 2 + 1

        self._encode_value = encode_value or (lambda value: value)
        self._decode_value = decode_value or (lambda value: value)
        # Durable acceptor state (Paxos safety across restarts) and a commit
        # log of decided instances (so a restarted replica re-applies its
        # prefix without touching the network).  Both optional.
        self.acceptor = Acceptor(
            replica_id,
            wal=acceptor_wal,
            encode_value=self._encode_value,
            decode_value=self._decode_value,
        )
        self._log_wal = log_wal
        self._proposers: Dict[int, Proposer] = {}
        self._proposer_index = self.peers.index(replica_id)
        self._next_instance = 0
        #: instance -> command this replica originally proposed there.  After
        #: a fail-over the new leader can be forced (by Paxos) to adopt an old
        #: accepted value for an instance; the command it meant to propose is
        #: then *displaced* and must be re-proposed at a fresh instance, or it
        #: would be silently lost.
        self._submitted: Dict[int, Any] = {}
        self._decided: Dict[int, Any] = {}
        self._applied_up_to = -1
        self._pending_commands: List[Any] = []
        #: Replicas believed to be alive (failure detection input).
        self.alive: Set[ReplicaId] = set(self.peers)
        self.stats = {
            "proposed": 0,
            "committed": 0,
            "forwarded": 0,
            "nacks": 0,
            # Ballot churn: instances re-run with a higher ballot after a
            # nack (contention / fail-over pressure).
            "ballot_retries": 0,
            # Catch-up traffic: requests this replica answered and entry
            # volume in both directions (rejoin cost).
            "catchup_served": 0,
            "catchup_entries_sent": 0,
            "catchup_entries_applied": 0,
        }
        #: Log length recovered from the commit WAL at construction.
        self.recovered_instances = 0
        if log_wal is not None:
            for record in log_wal.records():
                if record[0] != "c":
                    raise ValueError(f"unknown commit WAL record kind: {record[0]!r}")
                self._decided[record[1]] = self._decode_value(record[2])
            if self._decided:
                self._next_instance = max(self._decided) + 1
            self.recovered_instances = len(self._decided)
            while self._applied_up_to + 1 in self._decided:
                self._applied_up_to += 1
                self._apply(self._applied_up_to, self._decided[self._applied_up_to])

    # ---------------------------------------------------------- observability
    def register_metrics(
        self, registry: MetricsRegistry, labels: Optional[Dict[str, str]] = None
    ) -> None:
        """Expose this replica's counters on ``registry`` (repro.obs).

        All series are pull-based callbacks over :attr:`stats` and the log
        book-keeping the replica already maintains, so registration adds no
        hot-path cost.  Ballot churn shows up as ``smr_ballot_retries_total``;
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
            "Log instances this replica knows the decision for.",
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
        leader and will re-propose any undecided pending commands.
        """
        self.alive.discard(replica)
        if self.is_leader:
            commands, self._pending_commands = self._pending_commands, []
            for command in commands:
                self.submit(command)

    def mark_alive(self, replica: ReplicaId) -> None:
        self.alive.add(replica)

    def rejoin(self) -> None:
        """Announce this (restarted) replica and pull the decided suffix.

        Called after construction replayed the local WALs: peers learn we are
        alive again (their failure detectors re-admit us, possibly handing
        leadership back), and a catch-up round fills every decision made
        while we were down.  Both messages are idempotent, so racing with
        in-flight traffic is harmless.
        """
        for peer in self.peers:
            if peer == self.replica_id:
                continue
            self.transport.send(peer, Heartbeat(leader=self.replica_id))
            self.transport.send(
                peer,
                CatchupRequest(
                    from_instance=self._applied_up_to + 1,
                    from_replica=self.replica_id,
                ),
            )

    # ------------------------------------------------------------ client path
    def submit(self, command: Any) -> None:
        """Submit a command for total ordering.

        Leaders start a Paxos instance for it; followers forward it to the
        leader (and stash a copy so it can be re-proposed after fail-over).
        """
        if self.is_leader:
            self._propose(command)
        else:
            self._pending_commands.append(command)
            self.stats["forwarded"] += 1
            self.transport.send(self.leader, ClientCommand(payload=command))

    def _propose(self, command: Any) -> None:
        instance = self._next_instance
        self._next_instance += 1
        ballot = Ballot(round=0, proposer=self._proposer_index)
        proposer = Proposer(
            instance=instance, ballot=ballot, value=command, quorum_size=self.quorum_size
        )
        self._proposers[instance] = proposer
        self._submitted[instance] = command
        self.stats["proposed"] += 1
        self._broadcast(proposer.prepare_message())

    def _retry(self, instance: int) -> None:
        """Re-run an instance with a higher ballot after a nack."""
        self.stats["ballot_retries"] += 1
        old = self._proposers[instance]
        new_ballot = Ballot(
            round=max(old.ballot.round, (old.preempted_by or old.ballot).round) + 1,
            proposer=self._proposer_index,
        )
        proposer = Proposer(
            instance=instance,
            ballot=new_ballot,
            value=old.value,
            quorum_size=self.quorum_size,
        )
        self._proposers[instance] = proposer
        self._broadcast(proposer.prepare_message())

    # -------------------------------------------------------------- messaging
    def _broadcast(self, message: Any) -> None:
        for peer in self.peers:
            if peer == self.replica_id:
                self._handle_local(message)
            elif peer in self.alive:
                # Crashed replicas are skipped; quorums among the survivors
                # are enough as long as a majority remains (Paxos guarantee).
                self.transport.send(peer, message)

    def _handle_local(self, message: Any) -> None:
        # The proposer is its own acceptor; loop the message back directly.
        self.on_message(self.replica_id, message)

    def on_message(self, sender: ReplicaId, message: Any) -> None:
        """Network entry point: dispatch every SMR-related message."""
        if isinstance(message, ClientCommand):
            self.submit(message.payload)
        elif isinstance(message, Prepare):
            reply = self.acceptor.on_prepare(message)
            self._reply(sender, reply)
        elif isinstance(message, Accept):
            reply = self.acceptor.on_accept(message)
            self._reply(sender, reply)
        elif isinstance(message, Promise):
            self._on_promise(message)
        elif isinstance(message, Accepted):
            self._on_accepted(message)
        elif isinstance(message, Nack):
            self._on_nack(message)
        elif isinstance(message, Commit):
            self._learn(message.instance, message.value)
        elif isinstance(message, Heartbeat):
            self.mark_alive(message.leader)
        elif isinstance(message, CatchupRequest):
            entries = tuple(
                (instance, value)
                for instance, value in sorted(self._decided.items())
                if instance >= message.from_instance
            )
            if entries:
                self.stats["catchup_served"] += 1
                self.stats["catchup_entries_sent"] += len(entries)
                for start in range(0, len(entries), CATCHUP_CHUNK):
                    self.transport.send(
                        message.from_replica,
                        CatchupReply(entries=entries[start:start + CATCHUP_CHUNK]),
                    )
        elif isinstance(message, CatchupReply):
            self.stats["catchup_entries_applied"] += len(message.entries)
            for instance, value in message.entries:
                self._learn(instance, value)
        else:
            raise TypeError(f"unexpected SMR message {message!r}")

    def _reply(self, sender: ReplicaId, reply: Any) -> None:
        if sender == self.replica_id:
            self.on_message(self.replica_id, reply)
        else:
            self.transport.send(sender, reply)

    # ------------------------------------------------------------- proposer side
    def _on_promise(self, promise: Promise) -> None:
        proposer = self._proposers.get(promise.instance)
        if proposer is None:
            return
        if proposer.on_promise(promise):
            self._broadcast(proposer.accept_message())

    def _on_accepted(self, accepted: Accepted) -> None:
        proposer = self._proposers.get(accepted.instance)
        if proposer is None:
            return
        if proposer.on_accepted(accepted):
            self.stats["committed"] += 1
            self._learn(accepted.instance, proposer.value)
            for peer in self.peers:
                if peer != self.replica_id and peer in self.alive:
                    self.transport.send(
                        peer, Commit(instance=accepted.instance, value=proposer.value)
                    )

    def _on_nack(self, nack: Nack) -> None:
        proposer = self._proposers.get(nack.instance)
        # A refused ballot is usually refused by several acceptors; only the
        # first nack finds it still running.  The rest would each outbid the
        # retry already in flight.
        if proposer is None or proposer.chosen or nack.ballot != proposer.ballot:
            return
        self.stats["nacks"] += 1
        proposer.on_nack(nack)
        self._retry(nack.instance)

    # ---------------------------------------------------------------- learner
    def _learn(self, instance: int, value: Any) -> None:
        if instance in self._decided:
            return
        self._decided[instance] = value
        # Decided is decided, whoever drove it: stop driving.  Late replies
        # for the instance find no proposer and are dropped.
        self._proposers.pop(instance, None)
        if self._log_wal is not None:
            # Persist the decision before applying it: after a restart the
            # replica replays exactly the prefix it already exposed.
            self._log_wal.append(["c", instance, self._encode_value(value)])
        self._next_instance = max(self._next_instance, instance + 1)
        # A follower stashes forwarded commands so it can re-propose them after
        # a leader crash; once a command is decided it must not be re-proposed.
        self._pending_commands = [c for c in self._pending_commands if c != value]
        # Apply every contiguous decided instance exactly once, in order.
        while self._applied_up_to + 1 in self._decided:
            self._applied_up_to += 1
            self._apply(self._applied_up_to, self._decided[self._applied_up_to])
        # If Paxos forced this instance to decide an *older* accepted value,
        # the command we meant to place here was displaced: give it a fresh
        # instance (unless some other instance decided it meanwhile).
        displaced = self._submitted.pop(instance, None)
        if (
            displaced is not None
            and displaced != value
            and displaced not in self._decided.values()
        ):
            self.submit(displaced)

    # ------------------------------------------------------------- inspection
    @property
    def applied_count(self) -> int:
        """Length of the applied prefix (``len(log)`` without building it)."""
        return self._applied_up_to + 1

    @property
    def log(self) -> List[Any]:
        """The applied prefix of the replicated log."""
        return [self._decided[i] for i in range(self.applied_count)]
