"""Tests for Security Refresh (behavioral and single-level models)."""

import pytest

from repro.config import SecurityRefreshConfig
from repro.errors import ConfigError
from repro.pcm.array import PCMArray
from repro.wearlevel.security_refresh import (
    SecurityRefresh,
    SingleLevelSecurityRefresh,
)


class TestBehavioralSR:
    def test_translation_consistent_with_writes(self):
        array = PCMArray.uniform(64, 100_000)
        scheme = SecurityRefresh(array, SecurityRefreshConfig(refresh_interval=8), seed=1)
        for step in range(500):
            la = step % 64
            pa = scheme.translate(la)
            scheme.write(la)
            assert array.page_writes(pa) >= 1

    def test_mapping_stays_bijective(self):
        array = PCMArray.uniform(64, 100_000)
        scheme = SecurityRefresh(array, SecurityRefreshConfig(refresh_interval=4), seed=1)
        for step in range(1000):
            scheme.write(step % 64)
        scheme.remap.validate()

    def test_overhead_matches_interval(self):
        array = PCMArray.uniform(64, 10**9)
        scheme = SecurityRefresh(array, SecurityRefreshConfig(refresh_interval=128), seed=1)
        for step in range(60_000):
            scheme.write(step % 64)
        # 2 writes per refresh, one refresh per ~128 writes.
        assert scheme.swap_write_ratio() == pytest.approx(2 / 128, rel=0.25)

    def test_uniformizes_repeat_writes(self):
        array = PCMArray.uniform(64, 10**9)
        scheme = SecurityRefresh(array, SecurityRefreshConfig(refresh_interval=8), seed=1)
        for _ in range(40_000):
            scheme.write(0)
        counts = array.write_counts()
        touched = int((counts > 0).sum())
        assert touched > 48  # hammering one LA reaches most frames

    def test_no_phase_lock_with_periodic_stream(self):
        # A write stream with the same period as the refresh interval must
        # not always remap the same logical page.
        array = PCMArray.uniform(64, 10**9)
        scheme = SecurityRefresh(array, SecurityRefreshConfig(refresh_interval=16), seed=3)
        start_frames = [scheme.translate(la) for la in range(16)]
        for step in range(32_000):
            scheme.write(step % 16)
        moved = sum(
            1 for la in range(16) if scheme.translate(la) != start_frames[la]
        )
        assert moved >= 12


class TestSingleLevelSR:
    def test_requires_power_of_two(self):
        with pytest.raises(ConfigError):
            SingleLevelSecurityRefresh(PCMArray.uniform(100, 1000))

    def test_requires_divisible_region(self):
        with pytest.raises(ConfigError):
            SingleLevelSecurityRefresh(
                PCMArray.uniform(64, 1000), SecurityRefreshConfig(region_pages=128)
            )

    def test_mapping_bijective_through_sweep(self):
        array = PCMArray.uniform(32, 10**9)
        scheme = SingleLevelSecurityRefresh(
            array, SecurityRefreshConfig(refresh_interval=2), seed=5
        )
        for step in range(5000):
            scheme.write(step % 32)
            frames = [scheme.translate(la) for la in range(32)]
            assert sorted(frames) == list(range(32))

    def test_regions_confine_mapping(self):
        array = PCMArray.uniform(64, 10**9)
        scheme = SingleLevelSecurityRefresh(
            array, SecurityRefreshConfig(refresh_interval=2, region_pages=16), seed=5
        )
        for step in range(2000):
            scheme.write(step % 64)
        for la in range(64):
            assert scheme.translate(la) // 16 == la // 16

    def test_key_rotation_changes_mapping(self):
        array = PCMArray.uniform(16, 10**9)
        scheme = SingleLevelSecurityRefresh(
            array, SecurityRefreshConfig(refresh_interval=1), seed=5
        )
        initial = [scheme.translate(la) for la in range(16)]
        for step in range(64):  # several full sweeps
            scheme.write(step % 16)
        assert [scheme.translate(la) for la in range(16)] != initial

    def test_swap_cost_two_writes_per_step(self):
        array = PCMArray.uniform(32, 10**9)
        scheme = SingleLevelSecurityRefresh(
            array, SecurityRefreshConfig(refresh_interval=4), seed=5
        )
        for step in range(4000):
            scheme.write(step % 32)
        # Half the sweep steps hit the already-swapped partner (cost 0),
        # so the average is ~1 write per refresh step = 0.25/write.
        assert 0.1 < scheme.swap_write_ratio() < 0.4
