"""Tests for repro.config."""

import pytest

from repro.config import (
    BWLConfig,
    PCMConfig,
    ScaledArrayConfig,
    SecurityRefreshConfig,
    StartGapConfig,
    TimingConfig,
    TWLConfig,
    WRLConfig,
    PAPER_PCM,
    PAIRING_ADJACENT,
)
from repro.errors import ConfigError


class TestPCMConfig:
    def test_paper_page_count(self):
        # 32 GiB / 4 KiB = 8M pages.
        assert PAPER_PCM.n_pages == 8 * 1024 * 1024

    def test_endurance_sigma(self):
        sigma = PAPER_PCM.endurance_mean * PAPER_PCM.endurance_sigma_fraction
        assert sigma == pytest.approx(1.1e7)

    def test_rejects_non_power_of_two_page(self):
        with pytest.raises(ConfigError):
            PCMConfig(page_bytes=3000)

    def test_rejects_line_larger_than_page(self):
        with pytest.raises(ConfigError):
            PCMConfig(page_bytes=4096, line_bytes=8192)

    def test_rejects_fractional_pages(self):
        with pytest.raises(ConfigError):
            PCMConfig(capacity_bytes=4096 + 1)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ConfigError):
            PCMConfig(endurance_sigma_fraction=1.5)


class TestScaledArrayConfig:
    def test_rejects_tiny_endurance(self):
        with pytest.raises(ConfigError):
            ScaledArrayConfig(endurance_mean=0.5)

    def test_rejects_one_page(self):
        with pytest.raises(ConfigError):
            ScaledArrayConfig(n_pages=1)


class TestTimingConfig:
    def test_write_cycles_is_set_latency(self):
        assert TimingConfig().write_cycles == 2000

    def test_rejects_negative_latency(self):
        with pytest.raises(ConfigError):
            TimingConfig(read_cycles=-1)


class TestTWLConfig:
    def test_paper_defaults(self):
        config = TWLConfig()
        assert config.toss_up_interval == 32
        assert config.inter_pair_swap_interval == 128
        assert config.rng_bits == 8
        assert config.write_counter_bits == 7

    def test_interval_must_fit_counter(self):
        with pytest.raises(ConfigError):
            TWLConfig(toss_up_interval=128, write_counter_bits=7)

    def test_with_pairing(self):
        config = TWLConfig().with_pairing(PAIRING_ADJACENT)
        assert config.pairing == PAIRING_ADJACENT
        assert config.toss_up_interval == 32

    def test_with_interval(self):
        config = TWLConfig().with_interval(8)
        assert config.toss_up_interval == 8

    def test_rejects_unknown_pairing(self):
        with pytest.raises(ConfigError):
            TWLConfig(pairing="nonsense")


class TestSchemeConfigs:
    def test_sr_rejects_non_power_of_two_region(self):
        with pytest.raises(ConfigError):
            SecurityRefreshConfig(region_pages=100)

    def test_sr_accepts_power_of_two_region(self):
        assert SecurityRefreshConfig(region_pages=64).region_pages == 64

    def test_startgap_rejects_zero_interval(self):
        with pytest.raises(ConfigError):
            StartGapConfig(gap_move_interval=0)

    def test_wrl_rejects_zero_prediction(self):
        with pytest.raises(ConfigError):
            WRLConfig(prediction_writes_per_page=0)

    def test_bwl_rejects_non_power_of_two_bloom(self):
        with pytest.raises(ConfigError):
            BWLConfig(bloom_bits=1000)

    def test_bwl_rejects_bad_hot_fraction(self):
        with pytest.raises(ConfigError):
            BWLConfig(hot_fraction=0.9)

    def test_bwl_rejects_bad_cold_threshold(self):
        with pytest.raises(ConfigError):
            BWLConfig(cold_threshold=0)
