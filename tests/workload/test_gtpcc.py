"""Tests for the geo-distributed gTPC-C workload."""

import random
from collections import Counter

import pytest

from repro.workload.gtpcc import GTPCCConfig, GTPCCWorkload


class TestConfig:
    def test_rejects_bad_locality(self):
        with pytest.raises(ValueError):
            GTPCCConfig(locality=0.0)
        with pytest.raises(ValueError):
            GTPCCConfig(locality=1.5)


class TestDestinationSelection:
    def test_home_always_included(self, latencies):
        workload = GTPCCWorkload(latencies, GTPCCConfig(locality=0.9))
        rng = random.Random(1)
        for _ in range(300):
            txn = workload.next_transaction(3, rng)
            assert 3 in txn.destinations
            assert txn.home == 3

    def test_destination_count_capped_at_three(self, latencies):
        workload = GTPCCWorkload(latencies, GTPCCConfig(locality=0.9))
        rng = random.Random(2)
        sizes = {len(workload.next_transaction(0, rng).destinations) for _ in range(2_000)}
        assert max(sizes) <= 3

    def test_global_only_mode_never_generates_local_messages(self, latencies):
        workload = GTPCCWorkload(latencies, GTPCCConfig(locality=0.9, global_only=True))
        rng = random.Random(3)
        for _ in range(500):
            txn = workload.next_transaction(5, rng)
            assert txn.is_global
            assert len(txn.destinations) >= 2

    def test_standard_mode_mostly_local_messages(self, latencies):
        """With the full TPC-C mix most transactions touch a single warehouse."""
        workload = GTPCCWorkload(latencies, GTPCCConfig(locality=0.9))
        rng = random.Random(4)
        global_count = sum(
            workload.next_transaction(0, rng).is_global for _ in range(3_000)
        )
        assert 0.05 < global_count / 3_000 < 0.5

    def test_unknown_home_rejected(self, latencies):
        workload = GTPCCWorkload(latencies)
        with pytest.raises(ValueError):
            workload.next_transaction(99, random.Random(0))


class TestLocality:
    def test_high_locality_prefers_nearest_warehouse(self, latencies):
        workload = GTPCCWorkload(latencies, GTPCCConfig(locality=0.99))
        rng = random.Random(5)
        nearest = latencies.nearest_sites(0)[0]
        picks = Counter(workload.pick_remote_warehouse(0, rng) for _ in range(2_000))
        assert picks[nearest] / 2_000 > 0.95

    def test_lower_locality_spreads_choices(self, latencies):
        workload_high = GTPCCWorkload(latencies, GTPCCConfig(locality=0.99))
        workload_low = GTPCCWorkload(latencies, GTPCCConfig(locality=0.60))
        rng_high, rng_low = random.Random(6), random.Random(6)
        nearest = latencies.nearest_sites(2)[0]
        high = sum(workload_high.pick_remote_warehouse(2, rng_high) == nearest for _ in range(2_000))
        low = sum(workload_low.pick_remote_warehouse(2, rng_low) == nearest for _ in range(2_000))
        assert high > low

    def test_excluded_warehouses_are_skipped(self, latencies):
        workload = GTPCCWorkload(latencies, GTPCCConfig(locality=0.99))
        rng = random.Random(7)
        nearest = latencies.nearest_sites(0)[0]
        pick = workload.pick_remote_warehouse(0, rng, exclude=frozenset({nearest}))
        assert pick != nearest

    def test_exclude_everything_raises(self, latencies):
        workload = GTPCCWorkload(latencies)
        everyone = frozenset(range(12)) - {0}
        with pytest.raises(ValueError):
            workload.pick_remote_warehouse(0, random.Random(0), exclude=everyone)

    def test_destination_size_distribution_mostly_two(self, latencies):
        workload = GTPCCWorkload(latencies, GTPCCConfig(locality=0.95, global_only=True))
        dist = workload.destination_size_distribution(0, random.Random(8), samples=2_000)
        assert dist[2] > 0.8
        assert dist.get(3, 0.0) < 0.2

    def test_generation_counters(self, latencies):
        workload = GTPCCWorkload(latencies, GTPCCConfig(locality=0.9, global_only=True))
        rng = random.Random(9)
        for _ in range(100):
            workload.next_transaction(0, rng)
        assert workload.generated == 100
        assert workload.generated_global == 100


class TestWarehouseSubsets:
    def test_custom_warehouse_subset(self, latencies):
        workload = GTPCCWorkload(latencies, GTPCCConfig(locality=0.9), warehouses=[0, 1, 2, 3])
        rng = random.Random(10)
        for _ in range(200):
            txn = workload.next_transaction(1, rng)
            assert txn.destinations <= {0, 1, 2, 3}

    def test_needs_at_least_two_warehouses(self, latencies):
        with pytest.raises(ValueError):
            GTPCCWorkload(latencies, warehouses=[0])
