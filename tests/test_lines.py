"""Tests for the line-granularity wear extension."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.pcm.lines import (
    LineWearConfig,
    LineWearModel,
    derating_factor,
    effective_page_endurance,
)


class TestConfig:
    def test_defaults_match_table1_geometry(self):
        # 4 KB page / 128 B line = 32 lines.
        assert LineWearConfig().lines_per_page == 32

    def test_validation(self):
        with pytest.raises(ConfigError):
            LineWearConfig(lines_per_page=0)
        with pytest.raises(ConfigError):
            LineWearConfig(intra_page_sigma_fraction=1.0)
        with pytest.raises(ConfigError):
            LineWearConfig(line_dirty_probability=0.0)


class TestLineWearModel:
    def test_full_dirty_fails_at_weakest_line(self, rng):
        config = LineWearConfig(intra_page_sigma_fraction=0.1)
        model = LineWearModel(1000, config, rng)
        weakest = int(model.line_endurance.min())
        writes = 0
        while not model.write_page():
            writes += 1
        assert writes + 1 == weakest

    def test_partial_dirty_stretches_lifetime(self):
        config_full = LineWearConfig(line_dirty_probability=1.0)
        config_half = LineWearConfig(line_dirty_probability=0.5)
        full = effective_page_endurance(2000, config_full, np.random.default_rng(3))
        half = effective_page_endurance(2000, config_half, np.random.default_rng(3))
        assert half > full

    def test_failed_property(self, rng):
        model = LineWearModel(50, LineWearConfig(), rng)
        assert not model.failed
        while not model.write_page():
            pass
        assert model.failed

    def test_rejects_bad_endurance(self, rng):
        with pytest.raises(ConfigError):
            LineWearModel(0, LineWearConfig(), rng)


class TestDerating:
    def test_no_variation_no_derating(self, rng):
        config = LineWearConfig(intra_page_sigma_fraction=0.0)
        assert derating_factor(1000, config, rng) == pytest.approx(1.0, abs=0.01)

    def test_variation_derates(self, rng):
        config = LineWearConfig(intra_page_sigma_fraction=0.1)
        factor = derating_factor(10_000, config, rng, samples=16)
        # Min of 32 draws at sigma=10% sits ~2 sigma below the mean.
        assert 0.7 < factor < 0.9

    def test_more_variation_more_derating(self, rng):
        mild = derating_factor(
            10_000, LineWearConfig(intra_page_sigma_fraction=0.02), rng, samples=16
        )
        harsh = derating_factor(
            10_000, LineWearConfig(intra_page_sigma_fraction=0.15), rng, samples=16
        )
        assert harsh < mild

    def test_rejects_zero_samples(self, rng):
        with pytest.raises(ConfigError):
            derating_factor(100, LineWearConfig(), rng, samples=0)
