"""Simulator golden: gTPC-C on overlay O1 repeats to the bit.

Two short runs of the shape the ``sim_gtpcc`` benchmark simulates (12
groups, 48 clients, 90 % locality, global transactions only) are reduced to
a SHA-256 of ``(issued, completed, latencies_ms)`` and compared with the
committed ``data/sim_golden.json``.  Virtual latencies depend on the order
every envelope, delta and notification is produced in, so a refactor of the
ordering core that is meant to change nothing must leave the hashes alone;
one that changes behaviour on purpose says so and regenerates the file::

    PYTHONPATH=src python tests/integration/test_sim_golden.py --write

The hashes do not depend on ``PYTHONHASHSEED``.
"""

import hashlib
import json
import os
import sys

import pytest

from repro.experiments.config import flexcast_config
from repro.experiments.runner import run_experiment

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "sim_golden.json")
RUNS = ((1, 300.0), (2, 300.0))


def digest(seed, duration_ms):
    """``(issued, completed, sha256)`` of one run."""
    result = run_experiment(
        flexcast_config(
            overlay="O1", locality=0.90, num_clients=48,
            duration_ms=duration_ms, global_only=True, seed=seed,
        )
    )
    latencies = [
        t.latencies_by_arrival[-1]
        for t in result.raw_latency.transactions
        if t.latencies_by_arrival
    ]
    text = json.dumps([result.issued, result.completed, latencies])
    return result.issued, result.completed, hashlib.sha256(text.encode()).hexdigest()


def _golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        return {(run["seed"], run["duration_ms"]): run for run in json.load(handle)}


@pytest.mark.parametrize("seed,duration_ms", RUNS)
def test_gtpcc_o1_run_matches_the_golden(seed, duration_ms):
    expected = _golden()[(seed, duration_ms)]
    issued, completed, sha256 = digest(seed, duration_ms)
    assert (issued, completed) == (expected["issued"], expected["completed"])
    assert sha256 == expected["sha256"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_sim_golden.py --write")
    runs = []
    for seed, duration_ms in RUNS:
        issued, completed, sha256 = digest(seed, duration_ms)
        runs.append({"seed": seed, "duration_ms": duration_ms, "issued": issued,
                     "completed": completed, "sha256": sha256})
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(runs, handle, indent=1)
        handle.write("\n")
