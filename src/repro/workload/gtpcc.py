"""gTPC-C: the geographically distributed TPC-C variant proposed by the paper.

§5.3: warehouses become groups, each deployed in one AWS region; transactions
become multicast messages addressed to the involved warehouses.  The
geographic twist is *locality*: a client's home warehouse is the region it
lives in, and when a transaction needs an additional warehouse the client
picks the warehouse **nearest to its home warehouse** with probability equal
to the *locality rate*; failing that the next nearest, and so on, up to the
farthest warehouse (modelling the wholesale-supplier policy of shipping an
item from the closest warehouse that stocks it).

Properties inherited from the paper:

* most global messages are addressed to exactly two warehouses, a few to
  three, and none to more (:data:`MAX_DESTINATIONS`): where the paper drops
  the very rare wider messages, a further remote access here folds into a
  warehouse already chosen;
* the latency experiments use only global (multi-warehouse) new-order and
  payment transactions; the throughput experiment uses the full mix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import AbstractSet, Dict, FrozenSet, List, Optional, Sequence, Set

from ..overlay.base import GroupId
from ..sim.latencies import LatencyMatrix
from .tpcc import (
    GLOBAL_ONLY_MIX,
    STANDARD_MIX,
    TransactionProfile,
    TransactionType,
    sample_profile,
)


#: The widest transaction generated.  The paper drops the very rare messages
#: to more than three warehouses; here a remote access beyond the third
#: warehouse folds into one already chosen, at no draw.
MAX_DESTINATIONS = 3

#: Safety valve for rejection sampling of global transactions.
MAX_ATTEMPTS = 1000


@dataclass(frozen=True)
class Transaction:
    """One generated gTPC-C transaction, ready to become a multicast message."""

    txn_type: TransactionType
    home: GroupId
    destinations: FrozenSet[GroupId]
    payload_bytes: int

    @property
    def is_global(self) -> bool:
        return len(self.destinations) > 1


@dataclass
class GTPCCConfig:
    """The two settings the paper's runs vary.

    ``locality`` is the paper's locality rate (0.90 / 0.95 / 0.99 in the
    evaluation); ``global_only`` restricts generation to multi-warehouse
    new-order/payment transactions (latency experiments).  The width cap is
    :data:`MAX_DESTINATIONS` for every run.
    """

    locality: float = 0.90
    global_only: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.locality <= 1.0:
            raise ValueError("locality must be in (0, 1]")


class GTPCCWorkload:
    """Generates gTPC-C transactions for clients homed at specific warehouses."""

    def __init__(
        self,
        latencies: LatencyMatrix,
        config: Optional[GTPCCConfig] = None,
        warehouses: Optional[Sequence[GroupId]] = None,
    ) -> None:
        self._latencies = latencies
        self.config = config or GTPCCConfig()
        self._warehouses: List[GroupId] = (
            list(warehouses) if warehouses is not None else list(range(latencies.num_sites))
        )
        if len(self._warehouses) < 2:
            raise ValueError("gTPC-C needs at least two warehouses")
        # Precompute, for every home warehouse, the other warehouses ordered
        # from nearest to farthest — the backbone of the locality rule.
        known = set(self._warehouses)
        self._nearness: Dict[GroupId, List[GroupId]] = {
            w: [s for s in latencies.nearest_sites(w) if s in known]
            for w in self._warehouses
        }
        self.generated = 0
        self.generated_global = 0

    # --------------------------------------------------------------- locality
    @property
    def warehouses(self) -> List[GroupId]:
        return list(self._warehouses)

    def pick_remote_warehouse(
        self, home: GroupId, rng: random.Random, exclude: AbstractSet[GroupId] = frozenset()
    ) -> GroupId:
        """Pick an additional warehouse for a client homed at ``home``.

        Walk the warehouses from nearest to farthest, skipping ``exclude``;
        at each step pick the current candidate with probability
        ``locality``, otherwise move on.  The farthest candidate absorbs the
        residual probability, exactly as described in §5.3, so it costs no
        draw.  ``exclude`` is only read: the caller's live set will do.
        """
        locality = self.config.locality
        draw = rng.random
        candidate = None
        for warehouse in self._nearness[home]:
            if warehouse in exclude:
                continue
            # ``warehouse`` is a further candidate, so ``candidate`` is not
            # the last one: it gets its draw.
            if candidate is not None and draw() < locality:
                return candidate
            candidate = warehouse
        if candidate is None:
            raise ValueError(f"no remote warehouse available for home {home}")
        return candidate

    # ------------------------------------------------------------- generation
    def next_transaction(self, home: GroupId, rng: random.Random) -> Transaction:
        """Generate the next transaction for a client homed at ``home``.

        Under ``global_only`` a profile with no remote access is redrawn
        before anything is built for it: it could only name ``home``.
        """
        if home not in self._nearness:
            raise ValueError(f"unknown home warehouse {home}")
        global_only = self.config.global_only
        mix = GLOBAL_ONLY_MIX if global_only else STANDARD_MIX
        for _ in range(MAX_ATTEMPTS):
            profile = sample_profile(rng, mix)
            if global_only and not profile.remote_accesses:
                # Latency experiments only use global messages; resample.
                continue
            destinations = self._destinations_for(home, profile, rng)
            self.generated += 1
            if len(destinations) > 1:
                self.generated_global += 1
            return Transaction(
                txn_type=profile.txn_type,
                home=home,
                destinations=destinations,
                payload_bytes=profile.payload_bytes,
            )
        raise RuntimeError(
            f"could not generate a transaction within {MAX_ATTEMPTS} attempts; "
            "check the locality configuration"
        )

    def _destinations_for(
        self, home: GroupId, profile: TransactionProfile, rng: random.Random
    ) -> FrozenSet[GroupId]:
        destinations: Set[GroupId] = {home}
        for _ in range(profile.remote_accesses):
            if len(destinations) >= MAX_DESTINATIONS:
                # Additional remote accesses fold into already chosen
                # warehouses (an item shipped from a warehouse already used).
                break
            destinations.add(self.pick_remote_warehouse(home, rng, destinations))
        return frozenset(destinations)

    # -------------------------------------------------------------- statistics
    def destination_size_distribution(
        self, home: GroupId, rng: random.Random, samples: int = 10_000
    ) -> Dict[int, float]:
        """Empirical distribution of |m.dst| (used by tests and docs)."""
        counts: Dict[int, int] = {}
        for _ in range(samples):
            txn = self.next_transaction(home, rng)
            counts[len(txn.destinations)] = counts.get(len(txn.destinations), 0) + 1
        return {size: count / samples for size, count in sorted(counts.items())}
