"""gTPC-C workload: TPC-C transaction profiles plus geographic locality.

What lives here: the paper's geo-distributed TPC-C variant.  The main entry
point is :class:`GTPCCWorkload` (configured by :class:`GTPCCConfig`:
warehouses per region, locality rate, transaction mix), which samples
:class:`Transaction`\\ s whose destination sets and payload sizes follow the
profiles in :mod:`~repro.workload.tpcc`; :class:`ClosedLoopClient` drives
them against a deployed protocol with a bounded number of outstanding
multicasts, and :class:`BoundedResubmitter` re-sends what a crash swallowed.

Load against the multi-process runtime is not generated here: the
end-to-end benchmark (``benchmarks/e2e``) drives it, and
``benchmarks/run_soak.py`` runs its ``rejoin`` round for as long as asked.
"""

from .clients import BoundedResubmitter, ClosedLoopClient, CompletedTransaction
from .gtpcc import GTPCCConfig, GTPCCWorkload, Transaction
from .tpcc import (
    GLOBAL_ONLY_MIX,
    NEW_ORDER_MAX_ITEMS,
    NEW_ORDER_MIN_ITEMS,
    NEW_ORDER_REMOTE_ITEM_PROB,
    PAYMENT_REMOTE_PROB,
    PAYLOAD_BYTES,
    SINGLE_WAREHOUSE_TYPES,
    STANDARD_MIX,
    TransactionMix,
    TransactionProfile,
    TransactionType,
    sample_profile,
)

__all__ = [
    "BoundedResubmitter",
    "ClosedLoopClient",
    "CompletedTransaction",
    "GTPCCConfig",
    "GTPCCWorkload",
    "Transaction",
    "GLOBAL_ONLY_MIX",
    "NEW_ORDER_MAX_ITEMS",
    "NEW_ORDER_MIN_ITEMS",
    "NEW_ORDER_REMOTE_ITEM_PROB",
    "PAYMENT_REMOTE_PROB",
    "PAYLOAD_BYTES",
    "SINGLE_WAREHOUSE_TYPES",
    "STANDARD_MIX",
    "TransactionMix",
    "TransactionProfile",
    "TransactionType",
    "sample_profile",
]
