"""The gTPC-C generator's draw sequence, pinned by hash.

Every simulator golden and benchmark latency depends on which transactions
the clients issue and on what the generator leaves in each client's RNG, so
a change to how a transaction is sampled must not move a single draw.  Each
case generates the first few hundred transactions for one (home, locality,
``global_only``, seed) combination and hashes them together with the RNG
state after them and the generator's counters.  The cases cover both the
standard mix (``global_only=False``) and the global-only mix.  Regenerate only for a
deliberate change of the workload::

    PYTHONPATH=src python tests/workload/test_gtpcc_draws.py
"""

import hashlib
import json
import random

import pytest

from repro.sim.latencies import aws_latency_matrix
from repro.workload.gtpcc import GTPCCConfig, GTPCCWorkload

TRANSACTIONS = 400

#: (home, locality, global_only, seed) -> SHA-256 of the draws.
EXPECTED = {
    (0, 0.90, True, 1): "d481c008978d538f5bc5b5f5380304736fda97bdd0b434041296ad32099f5aae",
    (5, 0.90, False, 2): "78aded3e4045ff14fba6291dee4ff42ef505c2988c1656191928adf2825fad08",
    (11, 0.95, True, 3): "3e2ed2aa5797a83cee10a13f9da3fcd1636dcabaa8b2ab4b71289c612df052da",
    (3, 0.99, False, 4): "100e853303b9641f1ef8877970951c457dff388a0fac821016222649d23fe4b0",
    (7, 0.50, False, 5): "e25839c2d5e1ecb3246ab79cf726e6c0006f02c11f705873148aa6f0d3086a8b",
    (9, 1.00, True, 6): "f487019eaf43dec7f195d821bf1f2184779004df4fdabc55817e818681aa995d",
}


def draws_digest(home, locality, global_only, seed):
    workload = GTPCCWorkload(
        aws_latency_matrix(), GTPCCConfig(locality=locality, global_only=global_only)
    )
    rng = random.Random(seed)
    transactions = []
    for _ in range(TRANSACTIONS):
        txn = workload.next_transaction(home, rng)
        transactions.append(
            [txn.txn_type.value, txn.home, sorted(txn.destinations), txn.payload_bytes]
        )
    counters = [workload.generated, workload.generated_global, workload.dropped_wide]
    text = json.dumps([transactions, counters, repr(rng.getstate())])
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(EXPECTED), ids=str)
def test_the_generator_draws_what_it_always_drew(case):
    assert draws_digest(*case) == EXPECTED[case]


if __name__ == "__main__":
    for case in sorted(EXPECTED):
        print(f"    {case!r}: {draws_digest(*case)!r},")
