"""The paper's evaluation claims (§5), checked on one shared set of runs.

Every figure is rendered once, at :data:`CLAIMS_SCALE`, through the one
evaluation path (:func:`repro.experiments.figures.run_all`), so each distinct
configuration runs once and every claim below reads the same runs: 28 runs
for the figures, plus the two of the GC ablation.  The assertions encode the
*shape* of the paper's results (who wins where), not absolute numbers; the
numbers themselves, at the default scale of ``examples/paper_figures.py``,
are in EXPERIMENTS.md.
"""

import pytest

from repro.experiments.config import flexcast_config
from repro.experiments.figures import Scale, run_all
from repro.experiments.runner import run_experiment
from repro.metrics.stats import percentile
from repro.overlay.builders import build_t1, build_t3
from repro.sim.latencies import aws_latency_matrix

#: Figure 6 sweeps four client counts; the other figures run 24 clients, so
#: Figure 8's runs are Figure 6's at 24.
CLAIMS_SCALE = Scale(
    duration_ms=2_000.0, num_clients=24, seed=1, client_counts=(6, 12, 24, 48)
)
LOCALITIES = (90, 95, 99)


@pytest.fixture(scope="module")
def figures():
    """Every figure at the claims scale, over one map of runs."""
    return run_all(CLAIMS_SCALE)


@pytest.fixture(scope="module")
def at_locality(figures):
    """``at_locality(protocol, percent)``: Figure 7's run of FlexCast O1,
    Hierarchical T1 or Distributed (the default overlay of each protocol)."""
    labels = {
        "flexcast": "FlexCast O1",
        "hierarchical": "Hierarchical T1",
        "distributed": "Distributed",
    }
    runs = figures["7"].results
    return lambda protocol, percent: runs[f"{labels[protocol]} @{percent}%"]


def median_latency(result, rank):
    samples = result.latency.latencies_for_destination(rank)
    return percentile(samples, 50) if samples else None


class TestFigure1:
    """Figure 1 — communication overhead per group (hierarchical T1, 90%).

    Paper: groups incur ~10% overhead on average; the two continental
    subtree roots suffer the most (about 23% and 36%); leaves have none.
    """

    def test_hierarchical_overhead_lands_on_inner_groups(self, figures):
        result = figures["1"]
        overhead = result.data["overhead_percent_by_group"]
        tree = build_t1(aws_latency_matrix())

        # Leaves never relay messages, so they have zero overhead.
        for group in tree.groups:
            if tree.is_leaf(group):
                assert overhead[group] == pytest.approx(0.0, abs=1e-9)

        # Some inner groups do relay: the average is positive and within the
        # same order of magnitude as the paper's ~10%.
        assert result.data["mean_percent"] > 1.0
        assert result.data["mean_percent"] < 40.0

        # The worst-hit group is an inner group with substantially more
        # overhead than the average (paper: 36% vs 9.2% mean).
        assert result.data["max_percent"] > result.data["mean_percent"]
        worst = max(overhead, key=overhead.get)
        assert not tree.is_leaf(worst)

    def test_every_group_has_an_overhead(self, figures):
        result = figures["1"]
        assert len(result.data["overhead_percent_by_group"]) == 12
        assert "overhead" in result.text
        assert result.data["mean_percent"] >= 0.0

    def test_the_figure_renders_as_text(self, figures):
        result = figures["1"]
        assert result.name.startswith("Figure 1")
        assert str(result).startswith("== Figure 1")


class TestFigure5Table2:
    """Figure 5 / Table 2 — per-destination latency, varying the overlay.

    Paper (90% locality, 90th percentile): FlexCast is very sensitive to the
    chosen C-DAG (O1 vs O2); the hierarchical trees are much less sensitive
    to the chosen tree, and T3 (the star) is the slowest tree because every
    message crosses its root.
    """

    def test_overlay_sensitivity(self, figures):
        result = figures["5"]
        tables = result.data["percentiles"]
        assert set(tables) == {
            "FlexCast O1",
            "FlexCast O2",
            "Hierarchical T1",
            "Hierarchical T2",
            "Hierarchical T3",
        }
        # Every configuration produced 1st and 2nd destination data.
        for label, table in tables.items():
            assert 1 in table and 2 in table, label
            assert table[1][90] > 0

        # FlexCast is highly sensitive to the overlay: the O1 and O2 latency
        # profiles differ noticeably at some destination rank (in the paper
        # the difference is largest at the later destinations; O1 is kept
        # afterwards).
        o1, o2 = tables["FlexCast O1"], tables["FlexCast O2"]
        common_ranks = set(o1) & set(o2)
        assert any(
            abs(o1[rank][90] - o2[rank][90]) / o2[rank][90] > 0.05
            for rank in common_ranks
        )

        # The star tree T3 funnels everything through its root: its first
        # destination latency is never meaningfully better than the other trees.
        t1, t2, t3 = (tables[f"Hierarchical {t}"][1][90] for t in ("T1", "T2", "T3"))
        assert t3 >= min(t1, t2) * 0.9

        # CDF series exist for plotting each destination (Figure 5 proper).
        cdfs = result.data["cdfs"]
        assert all(cdfs[label][1] for label in tables)

    def test_every_overlay_has_a_first_destination_cdf(self, figures):
        for label, cdfs in figures["5"].data["cdfs"].items():
            assert cdfs[1], label


class TestFigure6:
    """Figure 6 — throughput vs number of clients (99%, full gTPC-C mix).

    Paper: all three protocols sustain the same throughput as load grows (the
    curves overlap) until FlexCast bends first at its saturation point.  In
    the simulator none of the protocols saturate a CPU, so the reproduced
    shape is the overlapping linear region: throughput grows with the number
    of clients and the three protocols stay within the same band.
    """

    def test_throughput_grows_with_clients_and_protocols_track(self, figures):
        counts = CLAIMS_SCALE.client_counts
        series = figures["6"].data["throughput_ops_per_sec"]
        assert set(series) == {"FlexCast O1", "Hierarchical T1", "Distributed"}
        for label, points in series.items():
            assert set(points) == set(counts), label
            # Throughput grows with offered load (closed-loop clients) while
            # the system is below saturation.
            assert points[counts[-1]] > points[counts[0]], label

        # The three protocols track each other: at every client count the
        # fastest protocol stays within 2.5x of the slowest (the paper's
        # curves essentially overlap until saturation).
        for clients in counts:
            values = [series[label][clients] for label in series]
            assert max(values) <= 2.5 * min(values), f"divergence at {clients} clients"

    def test_one_series_per_protocol_over_the_sweep(self, figures):
        series = figures["6"].data["throughput_ops_per_sec"]
        assert set(series) == {"FlexCast O1", "Hierarchical T1", "Distributed"}
        assert all(set(points) == set(CLAIMS_SCALE.client_counts) for points in series.values())


class TestFigure7Table3:
    """Figure 7 / Table 3 — per-destination latency, varying the locality.

    Paper: FlexCast outperforms both baselines at the first destination for
    every locality rate; at the second destination it still beats the
    distributed protocol; at the third destination the hierarchical protocol
    wins.  FlexCast is the protocol most sensitive to locality.
    """

    def test_flexcast_leads_at_the_first_destinations(self, figures):
        tables = figures["7"].data["percentiles"]
        labels = {
            loc: {
                "flexcast": f"FlexCast O1 @{loc}%",
                "hierarchical": f"Hierarchical T1 @{loc}%",
                "distributed": f"Distributed @{loc}%",
            }
            for loc in LOCALITIES
        }
        assert set(tables) == {
            label for per_loc in labels.values() for label in per_loc.values()
        }

        for loc in LOCALITIES:
            flexcast = tables[labels[loc]["flexcast"]]
            hierarchical = tables[labels[loc]["hierarchical"]]
            distributed = tables[labels[loc]["distributed"]]
            # 1st destination: FlexCast clearly beats the distributed protocol
            # (paper: 42-46% latency reduction vs state-of-the-art genuine
            # multicast) and is at least on par with the hierarchical protocol
            # at the 90th percentile; in the tail (99p) FlexCast wins outright.
            # Our nearest-neighbour tree makes the hierarchical baseline
            # stronger than the paper's trees: Table 3 in EXPERIMENTS.md has
            # the two within a millisecond at the 1st destination's 90p.
            assert flexcast[1][90] < distributed[1][90], f"locality {loc}%"
            assert flexcast[1][90] <= hierarchical[1][90] * 1.10, f"locality {loc}%"
            assert flexcast[1][99] < hierarchical[1][99], f"locality {loc}%"
            # 2nd destination: FlexCast still beats the distributed protocol.
            assert flexcast[2][90] < distributed[2][90], f"locality {loc}%"

        # FlexCast benefits from higher locality at the first destination
        # (reduction from 90% -> 99% locality, as in Table 3).
        assert (
            tables[labels[99]["flexcast"]][1][90]
            <= tables[labels[90]["flexcast"]][1][90] * 1.10
        )


class TestFigure8:
    """Figure 8 — information exchanged per node (99%, full mix).

    Paper: FlexCast's average message size grows as nodes get higher in the
    C-DAG (they receive more history data), whereas the baselines have
    roughly constant message sizes; on aggregate FlexCast exchanges somewhat
    more bytes per node (79 KB/s vs 66-68.5 KB/s on the paper's testbed).
    """

    def test_flexcast_message_size_grows_up_the_cdag(self, figures):
        per_node = figures["8"].data["per_node"]
        averages = figures["8"].data["average_kbytes_per_second"]

        assert set(per_node) == {"FlexCast O1", "Hierarchical T1", "Distributed"}
        for label, rows in per_node.items():
            assert len(rows) == 12, label
            assert all(r["messages_per_second"] > 0 for r in rows), label

        # FlexCast's average message size grows up the C-DAG: the last third
        # of the rank order receives larger messages (more history) than the
        # first third right above the lca positions.
        flexcast_rows = per_node["FlexCast O1"]
        lower_third = [r["average_message_bytes"] for r in flexcast_rows[1:5]]
        upper_third = [r["average_message_bytes"] for r in flexcast_rows[-4:]]
        assert sum(upper_third) / len(upper_third) > sum(lower_third) / len(lower_third)

        # The spread of average message sizes is wider for FlexCast than for
        # the baselines (their payload-only messages have near-constant size).
        def spread(rows):
            sizes = [r["average_message_bytes"] for r in rows if r["average_message_bytes"] > 0]
            return max(sizes) - min(sizes)

        assert spread(per_node["FlexCast O1"]) > spread(per_node["Distributed"])

        # FlexCast ships at least as many bytes per node as the genuine
        # baseline (history data is the price of overlay-based genuineness).
        assert averages["FlexCast O1"] >= averages["Distributed"] * 0.8
        assert all(v > 0 for v in averages.values())

    def test_every_protocol_has_a_row_per_node_and_an_average(self, figures):
        data = figures["8"].data
        for label, rows in data["per_node"].items():
            assert len(rows) == 12, label
        assert set(data["average_kbytes_per_second"]) == set(data["per_node"])


class TestFigure9Table4:
    """Figure 9 / Table 4 — hierarchical overhead across trees and localities.

    Paper: T1's mean overhead decreases as locality grows (9.16% -> 5.41%);
    T3 concentrates its (locality-independent) overhead on the root, which
    endures 56% while every other group has none; trees with better latency
    have higher mean overhead.
    """

    def test_overhead_by_tree_and_locality(self, figures):
        result = figures["9"]
        table4 = {(row["overlay"], row["locality"]): row for row in result.data["table4"]}
        per_group = result.data["per_group_percent"]

        assert set(table4) == {
            (overlay, locality)
            for overlay in ("T1", "T2", "T3")
            for locality in (0.90, 0.95, 0.99)
        }

        # Every tree has some overhead at every locality (non-genuine protocol).
        assert all(row["mean_percent"] > 0 for row in table4.values())

        # T1's overhead decreases as locality increases (Table 4's headline trend).
        assert table4[("T1", 0.99)]["mean_percent"] < table4[("T1", 0.90)]["mean_percent"]

        # T3 is a star: all its overhead lands on the root, which is by far
        # the most penalised group in the whole experiment (paper: 56%).
        t3_root = build_t3(aws_latency_matrix()).root
        for loc in LOCALITIES:
            series = per_group[f"T3 @{loc}%"]
            assert max(series, key=series.get) == t3_root
            assert series[t3_root] > 25.0
            leaves = [g for g in series if g != t3_root]
            assert all(series[g] == pytest.approx(0.0, abs=1e-9) for g in leaves)

        # Concentration effect: in T3 the root carries essentially all the
        # overhead (max far above the mean), whereas T1 spreads it over
        # several inner groups.
        t3_row = table4[("T3", 0.90)]
        assert t3_row["max_percent"] > 3 * t3_row["mean_percent"]

        def groups_with_overhead(series):
            return sum(1 for v in series.values() if v > 1.0)

        t1_series = per_group["T1 @90%"]
        t3_series = per_group["T3 @90%"]
        assert groups_with_overhead(t1_series) > groups_with_overhead(t3_series) == 1


class TestLatencyTrends:
    """§5.6 at the median, on Figure 7's runs at 90% locality."""

    def test_flexcast_fastest_at_first_destination(self, at_locality):
        """§5.6: FlexCast outperforms both baselines at the 1st destination."""
        flexcast = median_latency(at_locality("flexcast", 90), 1)
        assert flexcast < median_latency(at_locality("hierarchical", 90), 1)
        assert flexcast < median_latency(at_locality("distributed", 90), 1)

    def test_flexcast_beats_distributed_at_second_destination(self, at_locality):
        """§5.6: at the 2nd destination FlexCast still beats the distributed
        protocol (the hierarchical protocol may win there)."""
        assert median_latency(at_locality("flexcast", 90), 2) < median_latency(
            at_locality("distributed", 90), 2
        )

    def test_all_protocols_complete_their_workloads(self, at_locality):
        for protocol in ("flexcast", "hierarchical", "distributed"):
            result = at_locality(protocol, 90)
            assert result.completed == result.issued > 0, protocol


class TestOverheadTrends:
    """§5.8 on Figure 7's runs."""

    def test_only_the_hierarchical_protocol_has_overhead(self, at_locality):
        """§5.8: genuine protocols have zero communication overhead."""
        assert at_locality("flexcast", 90).overhead.mean_percent == pytest.approx(0.0, abs=1e-9)
        assert at_locality("distributed", 90).overhead.mean_percent == pytest.approx(0.0, abs=1e-9)
        assert at_locality("hierarchical", 90).overhead.mean_percent > 1.0

    def test_hierarchical_leaves_have_no_overhead(self, at_locality):
        """§5.8: leaf groups always deliver what they receive."""
        tree = build_t1(aws_latency_matrix())
        overhead = at_locality("hierarchical", 90).overhead
        for group in tree.groups:
            if tree.is_leaf(group):
                assert overhead.overhead_percent(group) == pytest.approx(0.0, abs=1e-9)

    def test_hierarchical_overhead_decreases_with_locality(self, at_locality):
        """Table 4 trend: T1's mean overhead shrinks as locality grows."""
        low = at_locality("hierarchical", 90).overhead.mean_percent
        high = at_locality("hierarchical", 99).overhead.mean_percent
        assert high < low


class TestLocalitySensitivity:
    def test_flexcast_first_destination_latency_improves_with_locality(self, at_locality):
        """§5.6: FlexCast is the protocol most sensitive to locality."""
        low = median_latency(at_locality("flexcast", 90), 1)
        high = median_latency(at_locality("flexcast", 99), 1)
        assert high <= low * 1.05


class TestGcAblation:
    """Flush-based garbage collection (§4.3, DESIGN.md §4) on and off.

    GC must keep per-group histories bounded (instead of retaining every
    delivered message) without changing latency behaviour or breaking
    ordering.
    """

    def test_gc_bounds_history_growth(self):
        with_gc = run_experiment(CLAIMS_SCALE.apply(flexcast_config(gc_interval_ms=500.0)))
        without_gc = run_experiment(CLAIMS_SCALE.apply(flexcast_config(gc_interval_ms=None)))

        max_with = max(g.history_size() for g in with_gc.groups.values())
        max_without = max(g.history_size() for g in without_gc.groups.values())
        # Without GC the largest history retains a large fraction of
        # everything ever delivered; with GC it stays a small fraction of that.
        assert max_with < max_without / 2

        # GC does not break the protocol: every issued transaction completes.
        assert with_gc.completed == with_gc.issued
        assert without_gc.completed == without_gc.issued
        # Flush messages are multicast to *all* groups, so an aggressive
        # 500 ms flush period adds cross-group synchronisation and some
        # latency; it must stay within a small factor of the GC-free run
        # (the figures use a 2 s period, where the effect is negligible).
        lat_with = with_gc.latency.percentile_table()[1][90]
        lat_without = without_gc.latency.percentile_table()[1][90]
        assert lat_with < lat_without * 4.0
