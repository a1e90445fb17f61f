"""Replicated atomic multicast groups (paper §4.4).

The evaluation in the paper runs single-process groups to isolate protocol
costs, but the fault-tolerance story is state machine replication inside every
group: "processes within a group are kept consistent using state machine
replication ... groups do not fail as a whole".

:class:`ReplicatedGroup` provides exactly that wrapper on top of the
:class:`~repro.smr.multipaxos.MultiPaxosReplica` log:

* every envelope addressed to the logical group is first submitted to the
  group's replicated log (by whichever replica received it) — not one
  consensus instance per envelope but one per *turn*: what a replica received
  before its transport's clock moved is ordered as ONE log value
  (:class:`Turn`), so under load one instance carries many envelopes and at
  one envelope per turn the log holds exactly the bytes it always held;
* once a log position commits, **every** replica applies its envelopes, in
  arrival order, to its own copy of the protocol state machine
  (FlexCast/Skeen/tree group logic), so all replicas stay in sync;
* only the current leader's copy actually emits outbound protocol messages and
  client responses — otherwise descendants/clients would receive duplicates;
  after a fail-over, the new leader's copy continues from the same applied
  state, because it applied the same log prefix;
* a protocol copy arms no timer: its state is a function of the log alone,
  and its transport refuses ``schedule``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Hashable, List, Optional, Sequence, Tuple

from ..core.message import Envelope, Message, record
from ..obs import Observability
from ..overlay.base import GroupId
from ..protocols.base import AtomicMulticastGroup, AtomicMulticastProtocol, DeliverySink
from ..sim.transport import Transport
from ..storage import InMemoryStorage, Storage
from .multipaxos import MultiPaxosReplica, ReplicaId


@record
@dataclass(frozen=True, slots=True)
class OrderedEnvelope:
    """Log entry: an envelope (plus its original sender) ordered by the group."""

    sender: Hashable
    envelope: Envelope

    def size_bytes(self) -> int:
        return 16 + self.envelope.size_bytes()


class Turn:
    """Log value: the entries one replica received in one turn, in arrival order.

    Below :meth:`GroupReplica._apply` a turn is its JSON ``text``: what the
    frames and WAL records that carry it hold beside their own JSON, byte for
    byte, and what two turns are compared by.  The replica that received the
    entries serialises them when the text is first asked for, once; a turn
    read from a frame keeps the line it was parsed from, and one read from a
    WAL is not parsed until somebody wants its ``entries``.  Once applied, a
    turn that has its text lets the entries go (:meth:`release`) and re-makes
    them for the rare reader that asks; the replica then lets the turn itself
    go — the WALs hold it.

    A turn costs what its entries cost in the size model here; its text is
    the array of its entries' rows after a marker (``runtime/codec.py``).
    """

    __slots__ = ("_entries", "_text")

    def __init__(
        self,
        entries: Optional[Tuple[OrderedEnvelope, ...]] = None,
        text: Optional[bytes] = None,
    ) -> None:
        self._entries = entries
        self._text = text

    @property
    def entries(self) -> Tuple[OrderedEnvelope, ...]:
        if self._entries is not None:
            return self._entries
        from ..runtime.codec import turn_entries

        return turn_entries(self._text)

    @property
    def text(self) -> bytes:
        if self._text is None:
            from ..runtime.codec import turn_text

            self._text = turn_text(self._entries)
        return self._text

    def release(self) -> None:
        """Applied: keep one form — the text, if there is one."""
        if self._text is not None:
            self._entries = None

    def __eq__(self, other: object) -> bool:
        if type(other) is not Turn:
            return NotImplemented
        return other is self or self.text == other.text

    def __hash__(self) -> int:
        return hash(self.text)

    def __repr__(self) -> str:
        return f"Turn({self.text!r})"

    def size_bytes(self) -> int:
        return sum(entry.size_bytes() for entry in self.entries)


#: Modelled size (``size_bytes``) at which a flush closes a value and starts
#: the next; the entry that crosses it still goes.  A turn's JSON runs to
#: about 0.9 times its modelled size for small plain messages and to about
#: its modelled size for a batch carrier, whose members travel as rows, so an
#: ``Accept`` stays under 0.3 MB against the 16 MiB frame cap.  Not an option.
_TURN_VALUE_BYTES = 256 * 1024


class _GatedTransport(Transport):
    """What a replica's protocol copy sees of the world.

    Replicas all apply every log entry to their protocol copy; only the
    leader may let the resulting outbound messages reach the network, so
    ``send`` drops unless the gate is open.  There is no ``schedule``: a
    timer would make a copy's state depend on more than the log.
    """

    def __init__(self, inner: Transport) -> None:
        self._inner = inner
        self.open = False

    def send(self, dst, payload) -> None:
        if self.open:
            self._inner.send(dst, payload)

    def now(self) -> float:
        return self._inner.now()


def _ignore(*args: Any) -> None:
    """What a killed replica's callbacks become (nothing calls them)."""


class ReportedCount:
    """How many of the logical group's deliveries the application has seen,
    shared by the group's replicas.  Every replica delivers the same
    sequence, so delivery number *n* names the same message on all of them,
    and the leader reports it only if *n* is above this watermark."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


class GroupReplica:
    """One physical replica of a logical group.

    Envelopes are collected per turn (:meth:`on_message`) and submitted to
    the log by one :meth:`_flush` behind them; :meth:`_apply` runs a decided
    value's entries in order under one gate decision.
    """

    def __init__(
        self,
        group_id: GroupId,
        replica_id: ReplicaId,
        peer_replicas: Sequence[ReplicaId],
        protocol: AtomicMulticastProtocol,
        transport: Transport,
        sink: DeliverySink,
        storage: Storage,
        reported: Optional[ReportedCount] = None,
    ) -> None:
        self.group_id = group_id
        self.replica_id = replica_id
        self._gated = _GatedTransport(transport)
        self._outer_transport = transport
        #: Deliveries already reported to the application, shared across the
        #: logical group's replicas.  Around a fail-over, the old leader may
        #: apply a committed instance (and report it) while a follower that
        #: just took over applies the same instance later, when *it* is the
        #: leader — without the shared watermark the application would see
        #: the delivery twice.
        self._reported = reported if reported is not None else ReportedCount()
        #: Set by :meth:`kill`: a crashed or stopped incarnation takes no
        #: input and must never report deliveries.
        self.dead = False
        #: This replica's own delivery order, as produced by its protocol copy
        #: (leaders and followers alike, before the leader gate).  After a
        #: restart it is rebuilt by the WAL replay — deterministically, since
        #: it is a pure function of the replicated log — which is exactly what
        #: the recovery oracle checks across the restart boundary.
        self.local_deliveries: List[str] = []
        #: Running SHA-256 over ``"\n".join(local_deliveries)``, so comparing
        #: replicas costs a ``copy().hexdigest()`` per poll instead of a
        #: rehash of the whole sequence.
        self.delivery_hash = hashlib.sha256()
        #: What this turn received so far; non-empty = a flush is scheduled.
        self._turn: List[OrderedEnvelope] = []
        #: Envelopes applied; over the leader's committed instances this is
        #: the log's batching factor (``smr_applied_envelopes_total``).
        self.applied_envelopes = 0
        # Each replica holds its own copy of the protocol state machine.
        self.protocol_state: AtomicMulticastGroup = protocol.create_group(
            group_id, self._gated, self._make_sink(sink)
        )
        # While the commit WAL replays (inside the MultiPaxosReplica
        # constructor) the replica re-applies its pre-crash log prefix: the
        # outbound gate stays shut and nothing is reported — peers and
        # clients saw those effects before the crash.
        self._recovering = True
        self.smr = MultiPaxosReplica(
            replica_id=replica_id,
            peers=peer_replicas,
            transport=transport,
            apply=self._apply,
            storage=storage,
            encode_value=lambda turn: turn.text,
            decode_value=lambda text: Turn(text=text),
        )
        self._recovering = False

    def _make_sink(self, sink: DeliverySink) -> DeliverySink:
        def gated_sink(group_id: GroupId, message: Message) -> None:
            # Every replica records the delivery locally (state machine), but
            # only the leader reports it to the outside world — exactly once
            # per message, even when leadership changes mid-instance.  The
            # gate is what _apply decided for this turn: open on the leader,
            # shut while the WAL replays.
            separator = "\n" if self.local_deliveries else ""
            self.delivery_hash.update((separator + message.msg_id).encode("utf-8"))
            self.local_deliveries.append(message.msg_id)
            if self.dead or not self._gated.open:
                return
            number = len(self.local_deliveries)
            if number > self._reported.count:
                self._reported.count = number
                sink(group_id, message)

        return gated_sink

    # ------------------------------------------------------------- networking
    def on_message(self, sender: Hashable, payload: Any) -> None:
        """Entry point for everything arriving at this replica.

        Protocol envelopes (from clients or other groups) join this turn's
        list, which one :meth:`_flush` — scheduled by the first of them, at
        delay 0 — orders through the group's log; SMR-internal messages go
        straight to multi-Paxos.
        """
        if self.dead:
            return
        if isinstance(payload, Envelope):
            if not self._turn:
                self._outer_transport.schedule(0, self._flush)
            self._turn.append(OrderedEnvelope(sender, payload))
        else:
            self.smr.on_message(sender, payload)

    def kill(self) -> None:
        """This incarnation is over (crash, or a graceful stop): it takes no
        more input and reports nothing.  The callbacks it handed out, each
        leading back to it, are dropped, so a dead replica is freed by
        reference counting."""
        self.dead = True
        self.smr._apply = _ignore
        self.protocol_state._sink = _ignore

    def _flush(self) -> None:
        """Submit what the turn collected: one log value, or several when it
        outgrows ``_TURN_VALUE_BYTES``, in arrival order (FIFO per sender is
        the list's).  A replica that died meanwhile submits nothing — the
        turn is lost like frames it never read."""
        turn, self._turn = self._turn, []
        if self.dead:
            return
        start = size = 0
        for end, entry in enumerate(turn, 1):
            size += entry.size_bytes()
            if size >= _TURN_VALUE_BYTES or end == len(turn):
                self.smr.submit(Turn(tuple(turn[start:end])))
                start, size = end, 0

    def _apply(self, instance: int, turn: Turn) -> None:
        # What this replica received or proposed it still holds; only a turn
        # taken from a WAL is parsed here (and may prove unreadable).
        entries = turn.entries
        # During WAL replay self.smr is still mid-construction; the recovery
        # check must short-circuit first (the gate stays shut regardless).
        self._gated.open = not self._recovering and self.smr.is_leader
        failure: Optional[Exception] = None
        try:
            for entry in entries:
                # An entry that raises (a misrouted request, say) must not
                # take its neighbours along: apply them all, then re-raise
                # the first error — as loud, and the same on every replica.
                try:
                    self.protocol_state.on_envelope(entry.sender, entry.envelope)
                except Exception as exc:
                    failure = failure or exc
                self.applied_envelopes += 1
        finally:
            self._gated.open = False
            turn.release()
        if failure is not None:
            raise failure

    # ---------------------------------------------------------- observability
    def attach_obs(self, obs: Observability) -> None:
        """Attach an observability hub to this replica.

        Wires the protocol copy's group instrumentation and exposes the
        multi-Paxos counters (ballot churn, catch-up traffic) labelled by
        group and replica.
        """
        self.protocol_state.attach_obs(obs)
        labels = {"group": str(self.group_id), "replica": str(self.replica_id)}
        self.smr.register_metrics(obs.registry, labels)
        obs.registry.counter(
            "smr_applied_envelopes_total",
            "Envelopes applied from the log; / smr_committed_total on the "
            "leader = envelopes per consensus instance.",
            labels,
            fn=lambda: self.applied_envelopes,
        )

    # -------------------------------------------------------------- failover
    def mark_failed(self, replica: ReplicaId) -> None:
        self.smr.mark_failed(replica)

    def rejoin(self) -> None:
        """Announce the restarted replica to its peers and catch up the delta."""
        self.smr.rejoin()

    @property
    def is_leader(self) -> bool:
        return self.smr.is_leader


def replica_node(group_id: GroupId, index: int) -> str:
    """Network node id of replica ``index`` of group ``group_id``."""
    return f"group-{group_id}-replica-{index}"


class ReplicatedGroup:
    """A logical group made of ``replication_factor`` replicas.

    This is the deployment helper used by tests and the fault-tolerance
    example: it registers every replica on the simulated network and exposes
    the logical group through its current leader.  The replicas keep their
    WALs in ``storage`` — an :class:`~repro.storage.InMemoryStorage` of the
    group's own when none is given — so a restarted replica replays its own
    log either way.
    """

    def __init__(
        self,
        group_id: GroupId,
        protocol: AtomicMulticastProtocol,
        network,
        site: int,
        sink: DeliverySink,
        replication_factor: int = 3,
        storage: Optional[Storage] = None,
    ) -> None:
        if replication_factor < 1:
            raise ValueError("replication factor must be at least 1")
        self.group_id = group_id
        self.replicas: List[GroupReplica] = []
        self._crashed_indices: set = set()
        replica_ids = [replica_node(group_id, i) for i in range(replication_factor)]
        reported = ReportedCount()
        # Kept for restart_replica: a rebooted replica is built from the same
        # ingredients (and the same storage) as its crashed incarnation.
        self._protocol = protocol
        self._site = site
        self._sink = sink
        self._reported = reported
        self._replica_ids = replica_ids
        self._storage = storage if storage is not None else InMemoryStorage()
        self._obs: Optional[Observability] = None
        for replica_id in replica_ids:
            transport = _ReplicaTransport(network, replica_id, group_id, replica_ids)
            replica = GroupReplica(
                group_id=group_id,
                replica_id=replica_id,
                peer_replicas=replica_ids,
                protocol=protocol,
                transport=transport,
                sink=sink,
                reported=reported,
                storage=self._storage,
            )
            self.replicas.append(replica)
            network.register(replica_id, site=site, handler=replica.on_message)

    def attach_obs(self, obs: Observability) -> None:
        """Attach an observability hub to every replica of this group.

        Restarted replicas (see :meth:`restart_replica`) re-attach
        automatically: callback re-registration re-binds the series to the
        new incarnation.
        """
        self._obs = obs
        for index, replica in enumerate(self.replicas):
            if index not in self._crashed_indices:
                replica.attach_obs(obs)

    @property
    def leader(self) -> GroupReplica:
        for index, replica in enumerate(self.replicas):
            if index in self._crashed_indices:
                continue
            if replica.is_leader:
                return replica
        # All replicas crashed (or none claims leadership): fall back to the
        # first survivor so callers still get a deterministic answer.
        for index, replica in enumerate(self.replicas):
            if index not in self._crashed_indices:
                return replica
        return self.replicas[0]

    def crash_replica(self, index: int, network) -> None:
        """Crash one replica: unregister it and inform the survivors."""
        victim = self.replicas[index]
        self._crashed_indices.add(index)
        victim.kill()
        network.unregister(victim.replica_id)
        for replica in self.replicas:
            if replica is not victim:
                replica.mark_failed(victim.replica_id)

    def restart_replica(self, index: int, network) -> GroupReplica:
        """Reboot a crashed replica from its persisted state.

        A *fresh* :class:`GroupReplica` is constructed — the crashed object is
        discarded, so everything the new incarnation knows comes from the
        shared storage (acceptor WAL, commit log, and, transitively, the
        protocol state rebuilt by replaying the log).  The new replica is
        re-registered on the network, announces itself to the survivors, and
        catches up decisions made while it was down.
        """
        if index not in self._crashed_indices:
            raise ValueError(f"replica {index} is not crashed")
        replica_id = self._replica_ids[index]
        transport = _ReplicaTransport(network, replica_id, self.group_id, self._replica_ids)
        replica = GroupReplica(
            group_id=self.group_id,
            replica_id=replica_id,
            peer_replicas=self._replica_ids,
            protocol=self._protocol,
            transport=transport,
            sink=self._sink,
            reported=self._reported,
            storage=self._storage,
        )
        self.replicas[index] = replica
        self._crashed_indices.discard(index)
        network.register(replica_id, site=self._site, handler=replica.on_message)
        if self._obs is not None:
            replica.attach_obs(self._obs)
        replica.rejoin()
        return replica

    def close(self) -> None:
        """End the run: kill every replica.  What they delivered stays
        readable; nothing they hold leads back to them any more."""
        for replica in self.replicas:
            replica.kill()


class _ReplicaTransport(Transport):
    """Transport for a replica: group-level destinations go to the peer
    group's *first* replica (its default leader); replica-level destinations go
    directly to that replica."""

    def __init__(self, network, node_id: str, group_id: GroupId, peer_replicas) -> None:
        self._network = network
        self._node_id = node_id
        self._group_id = group_id
        self._peer_replicas = list(peer_replicas)

    def send(self, dst, payload) -> None:
        if isinstance(dst, str) and dst.startswith("group-") and "-replica-" in dst:
            target = dst
        elif dst in self._peer_replicas:
            target = dst
        elif isinstance(dst, int):
            # Another logical group: address its replica 0 (default leader).
            target = replica_node(dst, 0)
            if not self._network.is_registered(target):
                return
        else:
            target = dst
        if self._network.is_registered(target):
            self._network.send(self._node_id, target, payload)

    def now(self) -> float:
        return self._network.loop.now

    def schedule(self, delay_ms: float, callback: Callable[[], None]):
        return self._network.loop.schedule(delay_ms, callback)
