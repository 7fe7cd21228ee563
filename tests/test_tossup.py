"""Tests for the toss-up decision component."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.tossup import TossUp, toss_up_threshold
from repro.errors import ConfigError


class TestThreshold:
    def test_equal_endurance_is_half(self):
        assert toss_up_threshold(100, 100, rng_bits=8) == 128

    def test_proportional(self):
        # 3:1 endurance ratio -> 192/256.
        assert toss_up_threshold(300, 100, rng_bits=8) == 192

    def test_extreme_ratio(self):
        threshold = toss_up_threshold(10**8, 1, rng_bits=8)
        assert threshold == 255  # fixed point saturates below 256

    def test_precision_scales_with_bits(self):
        assert toss_up_threshold(2, 1, rng_bits=16) == (2 << 16) // 3

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            toss_up_threshold(0, 5)
        with pytest.raises(ConfigError):
            toss_up_threshold(5, -1)

    def test_rejects_bad_bits(self):
        with pytest.raises(ConfigError):
            toss_up_threshold(1, 1, rng_bits=0)

    @given(st.integers(1, 10**6), st.integers(1, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_threshold_bounds_property(self, e_a, e_b):
        threshold = toss_up_threshold(e_a, e_b, rng_bits=8)
        assert 0 <= threshold <= 256
        # Complementary thresholds sum to ~256 (fixed-point floors).
        complement = toss_up_threshold(e_b, e_a, rng_bits=8)
        assert 255 <= threshold + complement <= 256


class TestTossUp:
    def test_empirical_probability_tracks_endurance(self):
        toss = TossUp(rng_bits=8, seed=1)
        choices_a = sum(toss.choose_a(300, 100) for _ in range(2560))
        assert choices_a / 2560 == pytest.approx(0.75, abs=0.02)

    def test_certain_choice_with_extreme_ratio(self):
        toss = TossUp(rng_bits=8, seed=2)
        fraction = sum(toss.choose_a(10**6, 1) for _ in range(256)) / 256
        assert fraction > 0.99

    def test_counters(self):
        toss = TossUp(seed=3)
        for _ in range(10):
            toss.choose_a(1, 1)
        assert toss.decisions == 10
        assert 0 <= toss.chose_a <= 10

    def test_deterministic_given_seed(self):
        a = TossUp(seed=7)
        b = TossUp(seed=7)
        seq_a = [a.choose_a(3, 2) for _ in range(64)]
        seq_b = [b.choose_a(3, 2) for _ in range(64)]
        assert seq_a == seq_b
