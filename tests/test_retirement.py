"""Tests for the retirement scheme."""

import pytest

from repro.errors import ConfigError
from repro.pcm.array import PCMArray
from repro.wearlevel.retirement import RetirementConfig, RetirementWearLeveling


def _make(n=64, endurance=1000, **overrides):
    array = PCMArray.uniform(n, endurance)
    defaults = dict(spare_fraction=0.125, margin_fraction=0.1,
                    estimate_sigma_fraction=0.0)
    defaults.update(overrides)
    return array, RetirementWearLeveling(
        array, config=RetirementConfig(**defaults), seed=3
    )


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            RetirementConfig(spare_fraction=0.0)
        with pytest.raises(ConfigError):
            RetirementConfig(margin_fraction=1.0)
        with pytest.raises(ConfigError):
            RetirementConfig(estimate_sigma_fraction=0.6)


class TestAddressSpace:
    def test_spares_reduce_logical_space(self):
        _, scheme = _make(n=64)
        assert scheme.logical_pages == 56
        assert scheme.spares_remaining() == 8

    def test_identity_before_retirements(self):
        _, scheme = _make()
        assert scheme.translate(5) == 5


class TestRetirement:
    def test_frame_retires_before_true_death(self):
        # Perfect estimates: the hammered frame must never reach its
        # endurance; the page migrates to a spare first.
        array, scheme = _make(endurance=1000)
        for _ in range(950):
            scheme.write(0)
        assert not array.has_failure
        assert scheme.retired_frames >= 1
        assert scheme.translate(0) != 0
        assert array.page_writes(0) < 1000

    def test_retired_frame_stays_idle(self):
        array, scheme = _make(endurance=500)
        for _ in range(460):
            scheme.write(0)
        frame_writes_after_retire = array.page_writes(0)
        for _ in range(200):
            scheme.write(0)
        assert array.page_writes(0) == frame_writes_after_retire

    def test_migration_costs_one_write(self):
        array, scheme = _make(endurance=500)
        for _ in range(1000):
            scheme.write(0)
            if scheme.retired_frames == 1:
                break
        assert scheme.swap_writes == scheme.retired_frames

    def test_spare_pool_exhaustion_then_death(self):
        array, scheme = _make(n=16, endurance=200)
        while not array.has_failure:
            scheme.write(0)
        assert scheme.spare_pool_exhausted
        # The hammered page consumed its frame plus every spare.
        assert scheme.retired_frames == 2  # 12.5% of 16 = 2 spares
        assert scheme.demand_writes > 3 * 180

    def test_mapping_bijective_after_retirements(self):
        array, scheme = _make(n=32, endurance=300)
        for step in range(2000):
            scheme.write(step % scheme.logical_pages)
            if array.has_failure:
                break
        scheme.remap.validate()

    def test_stats_keys(self):
        _, scheme = _make()
        scheme.write(0)
        stats = scheme.stats()
        assert "retired_frames" in stats
        assert "spares_remaining" in stats


class TestEstimateNoise:
    def test_optimistic_estimate_kills_early(self):
        # Huge estimate noise with a thin margin: some frame's estimate
        # exceeds its true endurance by more than the margin and the
        # device dies despite retirement.
        array, scheme = _make(
            n=64,
            endurance=500,
            margin_fraction=0.02,
            estimate_sigma_fraction=0.3,
        )
        for step in range(200_000):
            scheme.write(step % scheme.logical_pages)
            if array.has_failure:
                break
        assert array.has_failure

    def test_wide_margin_survives_noise(self):
        array, scheme = _make(
            n=64,
            endurance=500,
            margin_fraction=0.45,
            estimate_sigma_fraction=0.05,
        )
        for _ in range(3000):
            scheme.write(0)
            if array.has_failure:
                break
        assert not array.has_failure or scheme.spare_pool_exhausted


class TestSparePoolExhaustionEdge:
    """Behaviour at and beyond the moment the spare pool runs dry."""

    def test_exhaustion_flag_flips_exactly_once_pool_is_empty(self):
        array, scheme = _make(n=16, endurance=200)
        while not scheme.spare_pool_exhausted:
            scheme.write(0)
        assert scheme.spares_remaining() == 0
        assert not array.has_failure  # flag precedes the actual death

    def test_no_retirement_after_exhaustion(self):
        array, scheme = _make(n=16, endurance=200)
        while not scheme.spare_pool_exhausted:
            scheme.write(0)
        retired = scheme.retired_frames
        swaps = scheme.swap_writes
        while not array.has_failure:
            scheme.write(0)
        # The hammered frame rides to true death without further
        # migrations or swap-write accounting drift.
        assert scheme.retired_frames == retired
        assert scheme.swap_writes == swaps

    def test_other_pages_survive_exhaustion(self):
        array, scheme = _make(n=16, endurance=200)
        while not scheme.spare_pool_exhausted:
            scheme.write(0)
        scheme.write(1)
        assert not array.has_failure
        assert scheme.translate(1) != scheme.translate(0)

    def test_stats_reflect_exhaustion(self):
        _, scheme = _make(n=16, endurance=200)
        while not scheme.spare_pool_exhausted:
            scheme.write(0)
        stats = scheme.stats()
        assert stats["spares_remaining"] == 0.0
        assert stats["retired_frames"] == float(scheme.retired_frames)


class TestEstimateErrorRace:
    """Lifetime is a race between the margin and the worst estimate."""

    def test_death_frame_estimate_overshot_margin(self):
        # When noise kills the device early, the frame that died must be
        # one whose estimate exceeded its true endurance by more than
        # the margin absorbed — the mechanism, not just the outcome.
        array, scheme = _make(
            n=64,
            endurance=500,
            margin_fraction=0.02,
            estimate_sigma_fraction=0.3,
        )
        for step in range(200_000):
            scheme.write(step % scheme.logical_pages)
            if array.has_failure:
                break
        assert array.has_failure
        frame = array.first_failure.physical_page
        assert scheme._retire_at_list[frame] >= array.endurance[frame]

    def test_perfect_estimates_never_die_before_exhaustion(self):
        array, scheme = _make(
            n=32, endurance=300, estimate_sigma_fraction=0.0
        )
        for step in range(100_000):
            scheme.write(step % scheme.logical_pages)
            if array.has_failure:
                break
        if array.has_failure:
            assert scheme.spare_pool_exhausted

    def test_pessimistic_estimates_only_waste_spares(self):
        # Uniformly pessimistic estimates retire frames early (draining
        # the pool faster) but can never cause a premature death.
        array, scheme = _make(n=32, endurance=300)
        scheme._retire_at_list = [
            max(1, at - 50) for at in scheme._retire_at_list
        ]
        for step in range(50_000):
            scheme.write(step % scheme.logical_pages)
            if array.has_failure:
                break
        assert not array.has_failure or scheme.spare_pool_exhausted
