"""Tests for the TPC-C transaction profiles."""

import random
from collections import Counter

import pytest

from repro.workload.tpcc import (
    GLOBAL_ONLY_MIX,
    NEW_ORDER_MAX_ITEMS,
    NEW_ORDER_MIN_ITEMS,
    SINGLE_WAREHOUSE_TYPES,
    STANDARD_MIX,
    TransactionMix,
    TransactionType,
    sample_profile,
)


class TestMixes:
    def test_standard_mix_sums_to_one(self):
        assert sum(STANDARD_MIX.values()) == pytest.approx(1.0)

    def test_global_only_mix_normalised(self):
        assert sum(GLOBAL_ONLY_MIX.values()) == pytest.approx(1.0)
        assert set(GLOBAL_ONLY_MIX) == {TransactionType.NEW_ORDER, TransactionType.PAYMENT}

    def test_choose_transaction_type_follows_mix(self):
        rng = random.Random(7)
        counts = Counter(STANDARD_MIX.choose(rng) for _ in range(20_000))
        assert counts[TransactionType.NEW_ORDER] / 20_000 == pytest.approx(0.45, abs=0.02)
        assert counts[TransactionType.PAYMENT] / 20_000 == pytest.approx(0.43, abs=0.02)
        for single in SINGLE_WAREHOUSE_TYPES:
            assert counts[single] / 20_000 == pytest.approx(0.04, abs=0.01)


class TestTransactionMix:
    def test_reads_as_the_mapping_it_was_built_from(self):
        weights = {TransactionType.PAYMENT: 0.25, TransactionType.NEW_ORDER: 0.75}
        mix = TransactionMix(weights)
        assert dict(mix) == weights
        assert list(mix) == [TransactionType.PAYMENT, TransactionType.NEW_ORDER]
        assert mix == weights
        assert len(mix) == 2

    def test_draws_what_the_running_sum_over_the_mapping_draws(self):
        def running_sum(rng, mix):
            roll = rng.random() * sum(mix.values())
            acc = 0.0
            for txn_type, weight in mix.items():
                acc += weight
                if roll <= acc:
                    return txn_type
            return list(mix)[-1]

        for weights in (STANDARD_MIX, GLOBAL_ONLY_MIX, {TransactionType.DELIVERY: 3.0},
                        {TransactionType.PAYMENT: 0.1, TransactionType.DELIVERY: 0.0,
                         TransactionType.NEW_ORDER: 0.2}):
            mix = TransactionMix(weights)
            ours, theirs = random.Random(11), random.Random(11)
            for _ in range(2_000):
                assert mix.choose(ours) == running_sum(theirs, weights)

    def test_a_plain_mapping_samples_like_its_mix(self):
        weights = dict(STANDARD_MIX)
        a, b = random.Random(5), random.Random(5)
        assert [sample_profile(a, weights) for _ in range(500)] == [
            sample_profile(b, STANDARD_MIX) for _ in range(500)
        ]

    def test_rejects_empty_and_negative_weights(self):
        with pytest.raises(ValueError):
            TransactionMix({})
        with pytest.raises(ValueError):
            TransactionMix({TransactionType.PAYMENT: -0.1})


class TestProfiles:
    def test_new_order_item_count_in_spec_range(self):
        rng = random.Random(1)
        for _ in range(500):
            profile = sample_profile(rng, {TransactionType.NEW_ORDER: 1.0})
            assert NEW_ORDER_MIN_ITEMS <= profile.items <= NEW_ORDER_MAX_ITEMS
            assert 0 <= profile.remote_accesses <= profile.items

    def test_new_order_remote_rate_about_two_percent(self):
        rng = random.Random(2)
        items = remote = 0
        for _ in range(5_000):
            profile = sample_profile(rng, {TransactionType.NEW_ORDER: 1.0})
            items += profile.items
            remote += profile.remote_accesses
        assert remote / items == pytest.approx(0.02, abs=0.005)

    def test_payment_remote_rate_about_fifteen_percent(self):
        rng = random.Random(3)
        remote = sum(
            sample_profile(rng, {TransactionType.PAYMENT: 1.0}).remote_accesses
            for _ in range(10_000)
        )
        assert remote / 10_000 == pytest.approx(0.15, abs=0.02)

    def test_single_warehouse_types_never_remote(self):
        rng = random.Random(4)
        for txn_type in SINGLE_WAREHOUSE_TYPES:
            profile = sample_profile(rng, {txn_type: 1.0})
            assert profile.is_single_warehouse
            assert profile.remote_accesses == 0

    def test_payload_bytes_positive_and_new_order_largest(self):
        rng = random.Random(5)
        new_order = sample_profile(rng, {TransactionType.NEW_ORDER: 1.0})
        payment = sample_profile(rng, {TransactionType.PAYMENT: 1.0})
        assert new_order.payload_bytes > payment.payload_bytes > 0
