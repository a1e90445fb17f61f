"""Batching under fault profiles: a lost batch is N lost messages, never a
partial delivery; a duplicated batch is absorbed exactly once."""

from dataclasses import replace

import pytest

from repro.fuzz.harness import _check_batch_atomicity, run_scenario
from repro.fuzz.profiles import apply_profile
from repro.fuzz.workload import generate_scenario

#: Seeds whose generated workloads actually form batches under window 8
#: (bursty submission shapes; verified by the assertions below).
LOSS_SEEDS = (2, 5, 14)


def batched(seed, profile, window=8):
    scenario = apply_profile(generate_scenario(seed, profile), profile)
    return replace(scenario, batch_window=window)


class TestLossProfile:
    @pytest.mark.parametrize("seed", LOSS_SEEDS)
    def test_dropped_batches_degrade_all_or_nothing(self, seed):
        result = run_scenario(batched(seed, "loss"))
        # Safety-only mode (loss forfeits liveness by design), but none of
        # the violations may be batch partiality — the harness's
        # batch-atomicity oracle runs on every batched scenario.
        assert result.ok, result.violations[:5]
        # Belt and braces: re-check atomicity directly from the artifacts.
        assert _check_batch_atomicity(result.sequences, result.batches) == []

    def test_a_batch_loss_is_observed(self):
        # At least one seed must actually lose batch members somewhere
        # (otherwise this file pins nothing): find a run where some group
        # delivered none of a batch that another group delivered fully.
        observed_total_loss = False
        for seed in range(0, 40):
            result = run_scenario(batched(seed, "loss"))
            assert result.ok, (seed, result.violations[:5])
            for batch_id, members in result.batches:
                per_group = [
                    sum(1 for mid in seq if mid in set(members))
                    for seq in result.sequences.values()
                ]
                if 0 in per_group and len(members) in per_group:
                    observed_total_loss = True
            if observed_total_loss:
                break
        assert observed_total_loss, "no loss run ever dropped a whole batch"


class TestDupProfile:
    @pytest.mark.parametrize("seed", (2, 5))
    def test_duplicated_batches_absorbed(self, seed):
        result = run_scenario(batched(seed, "dup"))
        # Duplication keeps liveness: everything delivered exactly once and
        # every checked property (incl. batch atomicity) holds.
        assert result.ok, result.violations[:5]
        for sequence in result.sequences.values():
            assert len(sequence) == len(set(sequence))


class TestAtomicityOracle:
    """The oracle itself must reject what the gate makes impossible."""

    def test_flags_partial_and_interleaved_batches(self):
        batches = [("b0", ("m0", "m1", "m2"))]
        partial = {0: ["m0", "m1"], 1: ["m0", "m1", "m2"]}
        assert any(
            "partial" in v for v in _check_batch_atomicity(partial, batches)
        )
        reordered = {0: ["m1", "m0", "m2"]}
        assert any(
            "out of batch order" in v
            for v in _check_batch_atomicity(reordered, batches)
        )
        interleaved = {0: ["m0", "m1", "x9", "m2"]}
        assert any(
            "interleaved" in v for v in _check_batch_atomicity(interleaved, batches)
        )
        clean = {0: ["m0", "m1", "m2"], 1: []}
        assert _check_batch_atomicity(clean, batches) == []
