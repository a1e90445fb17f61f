"""TPC-C transaction profiles (the non-geographic half of gTPC-C).

The paper's gTPC-C benchmark (§5.3) keeps TPC-C's transaction mix and remote
access probabilities and adds geographic locality on top.  This module holds
the TPC-C side: the five transaction types, their standard mix, how many items
a new-order touches, and the per-item / per-payment probability of involving a
remote warehouse.  The geographic part (which remote warehouse, given a
locality rate) lives in :mod:`repro.workload.gtpcc`.
"""

from __future__ import annotations

import enum
import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Tuple


class TransactionType(enum.Enum):
    """The five TPC-C transaction types."""

    NEW_ORDER = "new_order"
    PAYMENT = "payment"
    ORDER_STATUS = "order_status"
    DELIVERY = "delivery"
    STOCK_LEVEL = "stock_level"


class TransactionMix(Mapping[TransactionType, float]):
    """A transaction mix: the weight of each type, in draw order.

    It reads as the ``{type: weight}`` mapping it was built from, and it
    holds that mapping's cumulative table, built once here: a draw is one
    ``rng.random()`` scaled by the total weight and a bisection, never a
    pass over the weights.  The bounds are summed in the mapping's order
    and the total with :func:`sum`, so a draw picks the type the running
    sum ``roll <= acc`` picks, to the bit.
    """

    __slots__ = ("_weights", "_bounds", "_choices", "_total")

    def __init__(self, weights: Mapping[TransactionType, float]) -> None:
        self._weights = dict(weights)
        if not self._weights:
            raise ValueError("a transaction mix needs at least one type")
        if any(weight < 0 for weight in self._weights.values()):
            raise ValueError("transaction mix weights must not be negative")
        bounds: List[float] = []
        acc = 0.0
        for weight in self._weights.values():
            acc += weight
            bounds.append(acc)
        self._bounds = bounds
        types = tuple(self._weights)
        # A roll past the last bound (floating point) takes the last type.
        self._choices = types + types[-1:]
        self._total = sum(self._weights.values())

    def __getitem__(self, txn_type: TransactionType) -> float:
        return self._weights[txn_type]

    def __iter__(self) -> Iterator[TransactionType]:
        return iter(self._weights)

    def __len__(self) -> int:
        return len(self._weights)

    def choose(self, rng: random.Random) -> TransactionType:
        """Draw one transaction type (one ``rng.random()``)."""
        return self._choices[bisect_left(self._bounds, rng.random() * self._total)]


#: Standard TPC-C transaction mix (probability of each type), §5.3.
STANDARD_MIX = TransactionMix({
    TransactionType.NEW_ORDER: 0.45,
    TransactionType.PAYMENT: 0.43,
    TransactionType.ORDER_STATUS: 0.04,
    TransactionType.DELIVERY: 0.04,
    TransactionType.STOCK_LEVEL: 0.04,
})

#: Mix used for the latency experiments: only the transaction types that can be
#: global (multi-warehouse), renormalised — order status, delivery and stock
#: level are always single-warehouse and "all multicast protocols perform the
#: same when ordering a message multicast to a single group".
GLOBAL_ONLY_MIX = TransactionMix({
    TransactionType.NEW_ORDER: 0.45 / 0.88,
    TransactionType.PAYMENT: 0.43 / 0.88,
})

#: New-order transactions touch between 5 and 15 items (TPC-C spec).
NEW_ORDER_MIN_ITEMS = 5
NEW_ORDER_MAX_ITEMS = 15

#: Probability that a new-order item is supplied by a remote warehouse (TPC-C).
NEW_ORDER_REMOTE_ITEM_PROB = 0.02

#: Probability that a payment is made by a customer of a remote warehouse (TPC-C).
PAYMENT_REMOTE_PROB = 0.15

#: Approximate serialized payload sizes in bytes per transaction type, used for
#: the traffic accounting in Figure 8.  (Order of magnitude of the request
#: parameters TPC-C defines; only relative consistency matters.)
PAYLOAD_BYTES: Dict[TransactionType, int] = {
    TransactionType.NEW_ORDER: 320,
    TransactionType.PAYMENT: 96,
    TransactionType.ORDER_STATUS: 48,
    TransactionType.DELIVERY: 48,
    TransactionType.STOCK_LEVEL: 48,
}

#: Transaction types that only ever touch the client's home warehouse.
SINGLE_WAREHOUSE_TYPES = frozenset(
    {
        TransactionType.ORDER_STATUS,
        TransactionType.DELIVERY,
        TransactionType.STOCK_LEVEL,
    }
)


@dataclass(frozen=True)
class TransactionProfile:
    """The warehouse-access shape of one generated transaction.

    ``remote_accesses`` is the number of accesses that hit a warehouse other
    than the home warehouse (for a new-order, the number of remote items; for
    a payment, 0 or 1).  The geographic layer turns each remote access into a
    concrete warehouse using the locality rule.
    """

    txn_type: TransactionType
    items: int
    remote_accesses: int

    @property
    def payload_bytes(self) -> int:
        return PAYLOAD_BYTES[self.txn_type]

    @property
    def is_single_warehouse(self) -> bool:
        return self.remote_accesses == 0


#: Every profile a sample can return, built once: a sample is a lookup.
#: New-order profiles are indexed ``[items][remote_accesses]``.
_NEW_ORDER_PROFILES: Tuple[Tuple[TransactionProfile, ...], ...] = tuple(
    tuple(
        TransactionProfile(TransactionType.NEW_ORDER, items, remote)
        for remote in range(items + 1)
    )
    for items in range(NEW_ORDER_MAX_ITEMS + 1)
)
_PAYMENT_PROFILES = (
    TransactionProfile(TransactionType.PAYMENT, 1, 0),
    TransactionProfile(TransactionType.PAYMENT, 1, 1),
)
_SINGLE_WAREHOUSE_PROFILES = {
    txn_type: TransactionProfile(txn_type, 1, 0) for txn_type in SINGLE_WAREHOUSE_TYPES
}


def _as_mix(mix: Optional[Mapping[TransactionType, float]]) -> TransactionMix:
    if isinstance(mix, TransactionMix):
        return mix
    return TransactionMix(mix) if mix else STANDARD_MIX


def sample_profile(
    rng: random.Random, mix: Optional[Mapping[TransactionType, float]] = None
) -> TransactionProfile:
    """Sample one transaction's type and warehouse-access shape.

    The draws, in order: the type; then for a payment one remote roll, for
    a new-order the item count and one remote roll per item.  Profiles are
    values, so the one returned is shared, never built.
    """
    txn_type = _as_mix(mix).choose(rng)
    if txn_type is TransactionType.NEW_ORDER:
        items = rng.randint(NEW_ORDER_MIN_ITEMS, NEW_ORDER_MAX_ITEMS)
        draw = rng.random
        remote = 0
        for _ in range(items):
            if draw() < NEW_ORDER_REMOTE_ITEM_PROB:
                remote += 1
        return _NEW_ORDER_PROFILES[items][remote]
    if txn_type is TransactionType.PAYMENT:
        return _PAYMENT_PROFILES[rng.random() < PAYMENT_REMOTE_PROB]
    return _SINGLE_WAREHOUSE_PROFILES[txn_type]
