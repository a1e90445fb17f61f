"""Simulator golden: gTPC-C repeats to the bit, for FlexCast and both baselines.

Two short runs of the shape the ``sim_gtpcc`` benchmark simulates (12
groups, 48 clients, 90 % locality, global transactions only) on overlay O1,
and the same two runs of the Distributed (Skeen) baseline on its complete
graph and of the Hierarchical baseline on tree T1, are reduced to a SHA-256
of ``(issued, completed, latencies_ms)`` and compared with the committed
``data/sim_golden.json``.  Virtual latencies
depend on the order every envelope, delta, notification and timestamp is
produced in, so a refactor of an ordering core that is meant to change
nothing must leave the hashes alone; one that changes behaviour on purpose
says so and regenerates the file::

    PYTHONPATH=src python tests/integration/test_sim_golden.py --write

The hashes do not depend on ``PYTHONHASHSEED`` (CI runs this file under
two fixed values) or on what ran before in the process: every client names
its own messages ``<client_id>-<n>`` and the flush coordinator its flushes,
so the ids Skeen's ``msg_id`` tie-break compares are the same in any
process.
"""

import hashlib
import itertools
import json
import os
import sys

import pytest

from repro.experiments.config import (
    PROTOCOL_DISTRIBUTED,
    PROTOCOL_FLEXCAST,
    PROTOCOL_HIERARCHICAL,
    distributed_config,
    flexcast_config,
    hierarchical_config,
)
from repro.experiments.runner import run_experiment

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "sim_golden.json")
SEEDS = ((1, 300.0), (2, 300.0))
PROTOCOLS = (PROTOCOL_FLEXCAST, PROTOCOL_DISTRIBUTED, PROTOCOL_HIERARCHICAL)


def _config(protocol, seed, duration_ms):
    common = dict(locality=0.90, num_clients=48, duration_ms=duration_ms,
                  global_only=True, seed=seed)
    if protocol == PROTOCOL_FLEXCAST:
        return flexcast_config(overlay="O1", **common)
    if protocol == PROTOCOL_HIERARCHICAL:
        return hierarchical_config(overlay="T1", **common)
    return distributed_config(**common)


def digest(protocol, seed, duration_ms):
    """``(issued, completed, sha256)`` of one run."""
    result = run_experiment(_config(protocol, seed, duration_ms))
    latencies = [
        t.latencies_by_arrival[-1]
        for t in result.raw_latency.transactions
        if t.latencies_by_arrival
    ]
    text = json.dumps([result.issued, result.completed, latencies])
    return result.issued, result.completed, hashlib.sha256(text.encode()).hexdigest()


def _golden():
    # FlexCast entries predate the protocol field and carry none.
    with open(GOLDEN, encoding="utf-8") as handle:
        return {
            (run.get("protocol", PROTOCOL_FLEXCAST), run["seed"], run["duration_ms"]): run
            for run in json.load(handle)
        }


@pytest.mark.parametrize("seed,duration_ms", SEEDS)
def test_gtpcc_o1_run_matches_the_golden(seed, duration_ms):
    expected = _golden()[(PROTOCOL_FLEXCAST, seed, duration_ms)]
    issued, completed, sha256 = digest(PROTOCOL_FLEXCAST, seed, duration_ms)
    assert (issued, completed) == (expected["issued"], expected["completed"])
    assert sha256 == expected["sha256"]


@pytest.mark.parametrize("seed,duration_ms", SEEDS)
def test_gtpcc_distributed_run_matches_the_golden(seed, duration_ms):
    expected = _golden()[(PROTOCOL_DISTRIBUTED, seed, duration_ms)]
    issued, completed, sha256 = digest(PROTOCOL_DISTRIBUTED, seed, duration_ms)
    assert (issued, completed) == (expected["issued"], expected["completed"])
    assert sha256 == expected["sha256"]


@pytest.mark.parametrize("seed,duration_ms", SEEDS)
def test_gtpcc_hierarchical_t1_run_matches_the_golden(seed, duration_ms):
    expected = _golden()[(PROTOCOL_HIERARCHICAL, seed, duration_ms)]
    issued, completed, sha256 = digest(PROTOCOL_HIERARCHICAL, seed, duration_ms)
    assert (issued, completed) == (expected["issued"], expected["completed"])
    assert sha256 == expected["sha256"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_sim_golden.py --write")
    runs = []
    for protocol, (seed, duration_ms) in itertools.product(PROTOCOLS, SEEDS):
        issued, completed, sha256 = digest(protocol, seed, duration_ms)
        run = {} if protocol == PROTOCOL_FLEXCAST else {"protocol": protocol}
        run.update(seed=seed, duration_ms=duration_ms, issued=issued,
                   completed=completed, sha256=sha256)
        runs.append(run)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(runs, handle, indent=1)
        handle.write("\n")
