"""Microbenchmarks of the core data structures and protocol hot paths.

These are conventional pytest-benchmark measurements (many iterations) of the
pieces that dominate FlexCast's CPU cost: history merging, transitive
dependency checks, history diffing, and a full lca->destination delivery
round.  They are the regression guard for the optimisation notes in DESIGN.md:
the incrementally indexed history must keep ``diff_for`` and the delivery
round flat in |H|, on chain-shaped *and* wide-fanout histories alike.

``benchmarks/run_bench.py`` runs the same shapes standalone and records the
op/sec trajectory in ``BENCH_micro.json``.
"""

import pytest

from repro.core.flexcast import FlexCastGroup
from repro.core.history import History
from repro.core.message import EMPTY_DELTA, FlexCastAck, FlexCastMsg, Message
from repro.overlay.cdag import CDagOverlay
from repro.protocols.base import RecordingSink
from repro.sim.transport import RecordingTransport

#: History sizes the indexes are exercised at.  5000 approximates the backlog
#: between two GC flushes under paper-scale load.
SIZES = [200, 1000, 5000]


def build_chain_history(length=200):
    """Chain shape: the per-group total order, each vertex one successor."""
    history = History()
    for i in range(length):
        history.record_delivery(Message(msg_id=f"m{i}", dst=frozenset({i % 4})))
    return history


def build_fanout_history(width=200, hubs=8):
    """Wide-fanout shape: a few hub messages ordered before many others.

    This is what merged ancestor histories look like at a high-ranked group:
    not a chain, but a shallow DAG where a handful of early messages (one per
    ancestor) precede wide layers of concurrent ones.  Backward reachability
    and diff slicing must stay cheap on this shape too.
    """
    history = History()
    hub_ids = []
    for h in range(hubs):
        hub_id = f"hub{h}"
        history.add_vertex(hub_id, frozenset({h % 4}))
        hub_ids.append(hub_id)
    for i in range(width):
        mid = f"f{i}"
        history.add_vertex(mid, frozenset({i % 4}))
        history.add_edge(hub_ids[i % hubs], mid)
    return history


def group_with_history(history):
    """Group 0 of a 12-group C-DAG holding ``history``; its diffs go through
    the per-peer channel path the protocol sends on."""
    group = FlexCastGroup(
        0, CDagOverlay(list(range(12))), RecordingTransport(0), RecordingSink()
    )
    group.history = history
    return group


@pytest.mark.benchmark(group="micro-history")
def test_history_record_delivery(benchmark):
    def run():
        build_chain_history(200)

    benchmark(run)


@pytest.mark.benchmark(group="micro-history")
@pytest.mark.parametrize("size", SIZES)
def test_history_merge_delta(benchmark, size):
    source = build_chain_history(size)
    delta = source.full_delta()

    def run():
        target = History()
        target.merge_delta(delta)

    benchmark(run)


@pytest.mark.benchmark(group="micro-history")
def test_history_transitive_depends(benchmark):
    history = build_chain_history(300)

    def run():
        assert history.depends("m299", "m0")

    benchmark(run)


@pytest.mark.benchmark(group="micro-history")
def test_history_depends_wide_fanout(benchmark):
    history = build_fanout_history(width=1000)

    def run():
        # A hub reaches its own layer but no other hub's.
        assert history.depends("f992", "hub0")
        assert not history.depends("f993", "hub0")

    benchmark(run)


@pytest.mark.benchmark(group="micro-history")
@pytest.mark.parametrize("size", SIZES)
def test_history_diff_tracking_bootstrap(benchmark, size):
    """First diff for a new descendant: must ship the whole history."""
    group = group_with_history(build_chain_history(size))

    def run():
        group._outgoing(3)
        del group.channels[3]

    benchmark(run)


@pytest.mark.benchmark(group="micro-history")
@pytest.mark.parametrize("size", SIZES)
def test_history_diff_tracking_steady_state(benchmark, size):
    """Per-send diff cost once the descendant is up to date.

    The acceptance metric for the journal/watermark design: flat in |H|
    instead of a rescan of every vertex and edge per send.
    """
    group = group_with_history(build_chain_history(size))
    group._outgoing(3)

    def run():
        assert group._outgoing(3)[1] is EMPTY_DELTA

    benchmark(run)


@pytest.mark.benchmark(group="micro-history")
def test_history_diff_tracking_fanout(benchmark):
    """Steady-state diffs over the wide-fanout shape."""
    group = group_with_history(build_fanout_history(width=1000))
    history = group.history
    group._outgoing(3)
    counter = {"i": 0}

    def run():
        counter["i"] += 1
        mid = f"extra{counter['i']}"
        history.add_vertex(mid, frozenset({1}))
        history.add_edge("hub0", mid)
        _, delta = group._outgoing(3)
        assert len(delta.vertices) == 1 and len(delta.edges) == 1

    benchmark(run)


@pytest.mark.benchmark(group="micro-protocol")
def test_flexcast_lca_delivery_round(benchmark):
    """One client message delivered at the lca and forwarded to 2 destinations."""
    overlay = CDagOverlay(list(range(12)))
    group = FlexCastGroup(0, overlay, RecordingTransport(0), RecordingSink())
    counter = {"i": 0}

    def run():
        counter["i"] += 1
        group.on_client_request(
            Message(msg_id=f"bench-{counter['i']}", dst=frozenset({0, 3, 7}))
        )

    benchmark(run)


@pytest.mark.benchmark(group="micro-protocol")
@pytest.mark.parametrize("size", SIZES)
def test_flexcast_lca_delivery_round_loaded(benchmark, size):
    """Steady-state lca round with |H| = size already accumulated.

    The seed implementation rescanned the whole history per forwarded
    envelope (diffing and Strategy (c) checks), so this used to degrade
    linearly with |H|; with the incremental indexes it must stay flat.
    """
    overlay = CDagOverlay(list(range(12)))
    group = FlexCastGroup(0, overlay, RecordingTransport(0), RecordingSink())
    for i in range(size):
        group.history.record_delivery(
            Message(msg_id=f"fill-{i}", dst=frozenset({0, 3, 7}))
        )
    for dest in (3, 7):
        group._outgoing(dest)
    counter = {"i": 0}

    def run():
        counter["i"] += 1
        group.on_client_request(
            Message(msg_id=f"bench-{counter['i']}", dst=frozenset({0, 3, 7}))
        )

    benchmark(run)


@pytest.mark.benchmark(group="micro-protocol")
def test_flexcast_non_lca_delivery_round(benchmark):
    """msg + ack handling at the highest destination of a 3-group message."""
    overlay = CDagOverlay(list(range(12)))
    counter = {"i": 0}
    group = FlexCastGroup(7, overlay, RecordingTransport(7), RecordingSink())

    def run():
        counter["i"] += 1
        seq = counter["i"]  # the next number on both channels into group 7
        message = Message(msg_id=f"bench-{seq}", dst=frozenset({0, 3, 7}))
        group.on_envelope(0, FlexCastMsg(message=message, history=EMPTY_DELTA, seq=seq))
        group.on_envelope(
            3, FlexCastAck(message=message, history=EMPTY_DELTA, from_group=3, seq=seq)
        )
        assert group.has_delivered(message.msg_id)

    benchmark(run)
