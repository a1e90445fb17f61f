"""Smoke-run every ``examples/*.py`` entry point under fixed seeds.

The ``replicated_inventory`` replay mismatch sat in ROADMAP for two PRs
because nothing executed the examples in CI — a regression in an example was
invisible to tier-1.  These tests run each example in-process (scaled down
where the default scale would be slow), assert the invariants the examples print,
and replay the produced traces through the trace checker so an ordering or
delivery bug in an example workload fails the suite instead of rotting.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.checker import check_trace

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def load_example(name: str):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestReplicatedInventory:
    @pytest.fixture(scope="class")
    def part1(self):
        return load_example("replicated_inventory").run_geo_distributed()

    def test_part1_invariants(self, part1):
        # The printed invariants: 12/12 warehouses match the sequential
        # replay and no stock is created or destroyed.
        assert part1["mismatches"] == 0
        assert part1["total_units"] == part1["expected_units"] == 36_000

    def test_part1_trace_properties(self, part1):
        """The observability gap that let the bug escape: the example never
        ran the checker over its own trace.  Close it here.

        Integrity, validity/agreement (the lost-delivery bug class), prefix
        order and global acyclic order all hold outright.
        """
        report = check_trace(part1["trace"], part1["messages"], expect_all_delivered=True)
        assert [str(v) for v in report.violations] == []

    def test_part2_failover(self):
        result = load_example("replicated_inventory").run_replicated_failover()
        assert result["agree"]
        delivered = result["delivered"]
        assert len(delivered) == len(set(delivered))  # exactly-once reporting
        assert len(delivered) >= 0.9 * len(result["adjustments"])

    def test_main_prints_the_advertised_numbers(self, capsys):
        load_example("replicated_inventory").main()
        out = capsys.readouterr().out
        assert "warehouses matching replay   : 12/12" in out
        assert "36000 units (expected 36000)" in out
        assert "surviving replicas agree     : True" in out


class TestQuickstart:
    def test_quickstart_checks_pass(self, capsys):
        load_example("quickstart").main()
        out = capsys.readouterr().out
        assert "All atomic multicast properties hold" in out


class TestGtpccComparison:
    def test_comparison_runs_at_small_scale(self, capsys, monkeypatch):
        monkeypatch.setattr(
            sys, "argv",
            ["gtpcc_comparison.py", "--clients", "8", "--duration-ms", "800"],
        )
        load_example("gtpcc_comparison").main()
        out = capsys.readouterr().out
        assert "FlexCast" in out


class TestPaperFigures:
    def test_single_figure_runs_at_small_scale(self, capsys, monkeypatch):
        monkeypatch.setattr(
            sys, "argv",
            ["paper_figures.py", "--figure", "1", "--duration-ms", "800",
             "--clients", "8"],
        )
        load_example("paper_figures").main()
        out = capsys.readouterr().out
        assert "Hierarchical T1" in out


class TestAsyncioCluster:
    def test_localhost_cluster_delivers(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["asyncio_cluster.py"])
        load_example("asyncio_cluster").main()
        out = capsys.readouterr().out
        assert "deliveries per group" in out
