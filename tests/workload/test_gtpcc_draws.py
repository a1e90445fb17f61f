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
    (0, 0.90, True, 1): "dc1f0c4ed8270413dbd1976a0ef5ef3c8be6aeb464fc1c8ca5a1614202c04722",
    (5, 0.90, False, 2): "f7d3482407b65a9656a156e926fe537a36a2fe87933d06f4091dfb0003a2f910",
    (11, 0.95, True, 3): "a1329f12ccb0ee01908cfd4c2fc67463ff3e6a2d7e7d639e9f06f3df4c719adb",
    (3, 0.99, False, 4): "46203e45660ec94ce40423d5729c45e2964d45f11fd1e7290a6b12a90be270ac",
    (7, 0.50, False, 5): "4b1cd4207b40222cae3e606c0b3efef82613217416739e12533479d22bb707ef",
    (9, 1.00, True, 6): "08abe31c5c690bfada175232e0c630ba85f584562adc60a85af57be735a45c21",
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
    counters = [workload.generated, workload.generated_global]
    text = json.dumps([transactions, counters, repr(rng.getstate())])
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(EXPECTED), ids=str)
def test_the_generator_draws_what_it_always_drew(case):
    assert draws_digest(*case) == EXPECTED[case]


if __name__ == "__main__":
    for case in sorted(EXPECTED):
        print(f"    {case!r}: {draws_digest(*case)!r},")
