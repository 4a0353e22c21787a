"""Unit tests for configuration dataclasses and their validation."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import (
    ConfigurationError,
    ContactConfig,
    GrailConfig,
    ReachGraphConfig,
    ReachGridConfig,
    StorageConfig,
    DEFAULT_RESOLUTIONS,
)


class TestStorageConfig:
    def test_defaults_are_positive(self):
        config = StorageConfig()
        assert config.block_size > 0
        assert config.buffer_blocks > 0
        assert config.sequential_cost == 20

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"block_size": 0},
            {"buffer_blocks": 0},
            {"sequential_cost": 0},
            {"block_size": -4},
        ],
    )
    def test_rejects_non_positive_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            StorageConfig(**kwargs)


class TestContactConfig:
    def test_default_threshold_matches_bluetooth_range(self):
        assert ContactConfig().distance_threshold == 25.0

    def test_rejects_non_positive_threshold(self):
        with pytest.raises(ConfigurationError):
            ContactConfig(distance_threshold=0.0)


class TestReachGridConfig:
    def test_paper_defaults(self):
        config = ReachGridConfig()
        assert config.temporal_resolution == 20

    @pytest.mark.parametrize(
        "kwargs",
        [{"temporal_resolution": 0}, {"spatial_resolution": 0.0}],
    )
    def test_rejects_non_positive_resolutions(self, kwargs):
        with pytest.raises(ConfigurationError):
            ReachGridConfig(**kwargs)


class TestReachGraphConfig:
    def test_default_resolutions_match_paper_optimum(self):
        config = ReachGraphConfig()
        assert config.sorted_resolutions == (2, 4, 8, 16, 32)
        assert config.partition_depth == 32
        assert DEFAULT_RESOLUTIONS == (2, 4, 8, 16, 32)

    def test_resolutions_are_sorted_regardless_of_input_order(self):
        config = ReachGraphConfig(resolutions=(16, 2, 8))
        assert config.sorted_resolutions == (2, 8, 16)

    def test_rejects_resolution_of_one(self):
        with pytest.raises(ConfigurationError):
            ReachGraphConfig(resolutions=(1, 2))

    def test_rejects_duplicate_resolutions(self):
        with pytest.raises(ConfigurationError):
            ReachGraphConfig(resolutions=(4, 4))

    def test_rejects_non_positive_depth(self):
        with pytest.raises(ConfigurationError):
            ReachGraphConfig(partition_depth=0)

    def test_replace_produces_validated_copies(self):
        config = ReachGraphConfig()
        assert replace(config, partition_depth=8).partition_depth == 8
        assert replace(config, resolutions=(2,)).sorted_resolutions == (2,)
        # the original is untouched (frozen dataclass semantics)
        assert config.partition_depth == 32
        # replace() reruns __post_init__, so copies are validated too
        with pytest.raises(ConfigurationError):
            replace(config, partition_depth=0)


class TestGrailConfig:
    def test_default_number_of_labelings(self):
        assert GrailConfig().num_labelings == 5

    def test_rejects_non_positive_labelings(self):
        with pytest.raises(ConfigurationError):
            GrailConfig(num_labelings=0)
