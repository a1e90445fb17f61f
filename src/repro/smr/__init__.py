"""State machine replication substrate: Paxos, multi-Paxos, replicated groups.

What lives here: the intra-group fault-tolerance layer the paper abstracts
away ("each group is a replicated state machine").  The main entry point is
:class:`ReplicatedGroup`, which wraps any protocol group in a
:class:`MultiPaxosReplica` ensemble so envelopes are applied through a
replicated log and survive leader crashes (exactly-once per logical group,
displaced commands re-proposed after fail-over — both pinned by the fuzz
crash profile).  :mod:`~repro.smr.paxos` holds the acceptor and the synod
messages as the multi-Paxos log runs them: one promise per leadership, one
accept per instance.
"""

from .multipaxos import ClientCommand, Commit, Heartbeat, MultiPaxosReplica
from .paxos import (
    Accept,
    Accepted,
    Acceptor,
    Ballot,
    Nack,
    Prepare,
    Promise,
    ZERO_BALLOT,
)
from .replica import GroupReplica, OrderedEnvelope, ReplicatedGroup, Turn, replica_node

__all__ = [
    "ClientCommand",
    "Commit",
    "Heartbeat",
    "MultiPaxosReplica",
    "Accept",
    "Accepted",
    "Acceptor",
    "Ballot",
    "Nack",
    "Prepare",
    "Promise",
    "ZERO_BALLOT",
    "GroupReplica",
    "OrderedEnvelope",
    "ReplicatedGroup",
    "Turn",
    "replica_node",
]
