"""Tests for experiment configuration and the figures' scenario builders."""

import pytest

from repro.experiments.config import (
    ExperimentConfig,
    distributed_config,
    flexcast_config,
    hierarchical_config,
)
from repro.experiments.figures import (
    DEFAULT_SCALE,
    Scale,
    figure1_scenario,
    figure5_table2_scenarios,
    figure6_scenarios,
    figure7_table3_scenarios,
    figure8_scenarios,
    figure9_table4_scenarios,
)


class TestValidation:
    def test_protocol_overlay_compatibility_enforced(self):
        with pytest.raises(ValueError):
            ExperimentConfig(protocol="flexcast", overlay="T1")
        with pytest.raises(ValueError):
            ExperimentConfig(protocol="hierarchical", overlay="O1")
        with pytest.raises(ValueError):
            ExperimentConfig(protocol="distributed", overlay="T2")

    def test_unknown_protocol_and_overlay_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(protocol="gossip")
        with pytest.raises(ValueError):
            ExperimentConfig(overlay="O9")

    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            ExperimentConfig(locality=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(num_clients=0)
        with pytest.raises(ValueError):
            ExperimentConfig(duration_ms=0)

    def test_display_label(self):
        assert flexcast_config(overlay="O2").display_label == "FlexCast O2"
        assert hierarchical_config().display_label == "Hierarchical T1"
        assert distributed_config().display_label == "Distributed"


class TestScenarios:
    def test_figure1_is_hierarchical_t1_at_90(self):
        config = figure1_scenario()
        assert config.protocol == "hierarchical" and config.overlay == "T1"
        assert config.locality == 0.90

    def test_figure5_covers_all_five_overlays(self):
        overlays = {c.overlay for c in figure5_table2_scenarios()}
        assert overlays == {"O1", "O2", "T1", "T2", "T3"}

    def test_figure6_covers_three_protocols_and_client_sweep(self):
        configs = figure6_scenarios(Scale(client_counts=(4, 8)))
        protocols = {c.protocol for c in configs}
        assert protocols == {"flexcast", "hierarchical", "distributed"}
        assert all(not c.global_only and c.locality == 0.99 for c in configs)
        assert len(configs) == 6

    def test_figure7_covers_three_localities_per_protocol(self):
        configs = figure7_table3_scenarios()
        assert len(configs) == 9
        assert {c.locality for c in configs} == {0.90, 0.95, 0.99}

    def test_figure8_uses_full_mix(self):
        assert all(not c.global_only for c in figure8_scenarios())

    def test_figure9_covers_trees_and_localities(self):
        configs = figure9_table4_scenarios()
        assert len(configs) == 9
        assert {c.overlay for c in configs} == {"T1", "T2", "T3"}

    def test_scale_applies_duration_clients_and_seed(self):
        scale = Scale(duration_ms=123.0, num_clients=7, seed=99)
        config = scale.apply(flexcast_config())
        assert (config.duration_ms, config.num_clients, config.seed) == (123.0, 7, 99)
