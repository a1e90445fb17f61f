"""The pivot-consistency guard: what orders a message nothing exposes.

A Strategy (c) notif-ack for pivot ``P`` tells ``P``'s destinations that the
acking group's dependency contribution to ``P`` is final — they deliver ``P``
relying on it.  But local deliveries keep happening after the ack, and
delivering ``X`` before ``Y`` (both pending at the group) creates the
brand-new ordering ``X ≺ Y``; if the history already shows ``Y ≺ … ≺ P``
while ``X`` has no path to ``P``, that new edge transitively slots ``X`` (and
everything behind it) *before* ``P`` after the promise was made.  Chained
across groups, exactly that race builds a global delivery cycle that
deadlocks the highest-ranked destination (the ``replicated_inventory``
lost-delivery bug, DESIGN.md "Ordering: pivot guard + exposure").

:class:`PivotGuard` holds the promises one group has made and answers, as
pure functions of the history and open-dependency set the group passes in,
what they oblige it to: hold ``X`` back while such a ``Y`` is undelivered,
re-ack a pivot a forced delivery turned out to precede, and — two pivots can
impose contradictory waits — name the head to release once a stand-off has
outlived :attr:`PivotGuard.GRACE_MS`.  It never calls back into the group,
which keeps the timer and the queues: the same relationship the group has
with :class:`~repro.core.timestamps.TimestampAuthority`.
"""

from __future__ import annotations

from typing import Collection, Dict, List, Optional, Sequence, Set

from .history import History
from .message import Message


class PivotGuard:
    """Acked pivots of one group and the delivery constraints they imply."""

    #: Upper bound on remembered pivots.  Garbage collection prunes them; in
    #: flush-less deployments the oldest promises retire first — a pivot only
    #: matters until its destinations have delivered it, which is long past
    #: by the time dozens of newer pivots were acked — so the target set of
    #: the forward queries below stays bounded.
    MAX_PIVOTS = 64

    #: Grace period before a guard-only block may be escaped.  Ordinary
    #: blocks resolve long before it elapses: the blocker delivers, or a
    #: merged delta shows the blocked head its own path to the pivot.
    GRACE_MS = 500.0

    def __init__(self) -> None:
        #: Pivots this group has acked, oldest first: pivot id -> message.
        self.pivots: Dict[str, Message] = {}
        #: Messages :meth:`pick_escape` released; they pass :meth:`allows`.
        self._exempt: Set[str] = set()
        #: Escape ticks observed without any delivery progress (backstop).
        self._stalls = 0
        self._progress_mark = -1

    def register(self, message: Message) -> None:
        """Remember an acked pivot, retiring the oldest past the cap."""
        pivots = self.pivots
        pivots[message.msg_id] = message
        while len(pivots) > self.MAX_PIVOTS:
            del pivots[next(iter(pivots))]

    def delivered(self, msg_id: str) -> None:
        """A released head went through: its exemption is spent."""
        self._exempt.discard(msg_id)

    def forget(self, msg_ids: Collection[str]) -> None:
        """Drop promises about ids garbage collection pruned.  Exemptions
        need no pruning: a released head is deliverable, so :meth:`delivered`
        spends its exemption within the tick that granted it."""
        for msg_id in self.pivots.keys() & msg_ids:
            del self.pivots[msg_id]

    def allows(self, msg_id: str, open_deps: Set[str], history: History) -> bool:
        """May ``msg_id`` be delivered without minting a new pre-pivot order?

        The guard delays ``X`` while some other undelivered local message
        ``Y`` precedes a known pivot that ``X`` does not precede: ``Y`` must
        go first (its position before ``P`` is already committed
        information, so delivering it creates nothing new).
        """
        if not self.pivots or msg_id in self._exempt:
            return True
        if not open_deps or (len(open_deps) == 1 and msg_id in open_deps):
            return True
        return not self.blocked_by(msg_id, open_deps, history)

    def blocked_by(self, msg_id: str, candidates: Set[str], history: History) -> bool:
        """True iff some candidate other than ``msg_id`` precedes an acked
        pivot that ``msg_id`` does not precede (the ``Y`` of the guard).

        Asked forward from the undelivered messages, the new end of the DAG
        (:meth:`History.reached_from`), never backward from the pivots:
        ``Y`` blocks ``X`` iff ``reached(Y) ⊄ reached(X)`` over the pivots.
        """
        pivots = self.pivots
        unreached = pivots.keys() - history.reached_from((msg_id,), pivots)
        return bool(history.reached_from(candidates - {msg_id}, unreached))

    def reack_targets(
        self, msg_id: str, prior: Sequence[Message], history: History
    ) -> List[Message]:
        """The still-binding pivots among ``prior`` that the just-delivered
        ``msg_id`` precedes.

        A late arrival forced the violation — the guard cannot hold a
        message addressed to the group back forever — so the group re-acks
        those pivots and their destinations merge the new chain *before*
        they deliver the pivot.
        """
        pivots = self.pivots
        reached = history.reached_from(
            (msg_id,), [p.msg_id for p in prior if p.msg_id in pivots]
        )
        return [p for p in prior if p.msg_id in reached]

    def pick_escape(
        self,
        blocked_heads: Sequence[str],
        open_deps: Set[str],
        history: History,
        progress: int,
    ) -> Optional[str]:
        """One grace period elapsed: name the guard-blocked head to release.

        A head is released only when its wait provably cannot resolve
        locally: every message it is waiting for is itself a guard-blocked
        queue head (a mutual stand-off).  A blocker that is merely waiting
        for remote acks or queued behind other messages still makes
        progress, so its dependants keep waiting — except that a
        *distributed* stand-off (groups blocking each other through the
        guard) is not locally detectable, so after four ticks on which
        ``progress`` (the group's delivery count) did not move, the smallest
        blocked head is forced through as a backstop.

        One head per tick, smallest id first: the tiebreak is global, so
        groups facing the same free choice break it the same way.
        """
        if not blocked_heads:
            self._stalls = 0
            return None
        if progress != self._progress_mark:
            self._progress_mark = progress
            self._stalls = 0
        else:
            self._stalls += 1
        # Blockers that are themselves blocked heads cannot move first.
        others = open_deps - set(blocked_heads)
        mutual = [
            m for m in blocked_heads if not self.blocked_by(m, others, history)
        ]
        candidates = mutual or (blocked_heads if self._stalls >= 4 else ())
        if not candidates:
            return None
        released = min(candidates, key=str)
        self._exempt.add(released)
        self._stalls = 0
        return released
