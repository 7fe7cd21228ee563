"""Tests for endurance sampling (including tail-faithful scaling)."""

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.errors import ConfigError
from repro.pcm.endurance import (
    norm_ppf,
    sample_gaussian_endurance,
    sample_tail_faithful,
)


class TestNormPpf:
    def test_matches_scipy(self):
        for p in (1e-9, 1e-6, 0.01, 0.25, 0.5, 0.75, 0.99, 1 - 1e-6):
            assert norm_ppf(p) == pytest.approx(
                float(scipy_stats.norm.ppf(p)), rel=1e-6, abs=1e-7
            )

    def test_symmetry(self):
        assert norm_ppf(0.3) == pytest.approx(-norm_ppf(0.7), abs=1e-9)

    def test_median_zero(self):
        assert norm_ppf(0.5) == pytest.approx(0.0, abs=1e-9)

    def test_rejects_endpoints(self):
        with pytest.raises(ValueError):
            norm_ppf(0.0)
        with pytest.raises(ValueError):
            norm_ppf(1.0)


class TestGaussianSampling:
    def test_shape_and_type(self, rng):
        sample = sample_gaussian_endurance(1000, 10_000, 0.11, rng)
        assert sample.shape == (1000,)
        assert sample.dtype == np.int64

    def test_mean_and_spread(self, rng):
        sample = sample_gaussian_endurance(20_000, 10_000, 0.11, rng)
        assert abs(sample.mean() - 10_000) < 50
        assert abs(sample.std() - 1100) < 60

    def test_all_positive(self, rng):
        sample = sample_gaussian_endurance(10_000, 100, 0.5, rng)
        assert (sample >= 1).all()

    def test_rejects_zero_pages(self, rng):
        with pytest.raises(ConfigError):
            sample_gaussian_endurance(0, 100, 0.1, rng)


class TestTailFaithful:
    def test_minimum_matches_reference_population(self, rng):
        reference = 8 * 1024 * 1024
        sample = sample_tail_faithful(1024, reference, 10_000, 0.11, rng)
        # Blom's plotting position for the weakest of ``reference`` pages.
        expected = 10_000 + 1100 * scipy_stats.norm.ppf(0.625 / (reference + 0.25))
        assert sample.min() == pytest.approx(expected, rel=0.02)

    def test_maximum_mirrors_minimum(self, rng):
        sample = sample_tail_faithful(1024, 1 << 23, 10_000, 0.11, rng)
        assert abs((sample.max() - 10_000) + (sample.min() - 10_000)) < 200

    def test_mean_preserved(self, rng):
        sample = sample_tail_faithful(4096, 1 << 23, 10_000, 0.11, rng)
        assert abs(sample.mean() - 10_000) < 150

    def test_positions_shuffled(self, rng):
        sample = sample_tail_faithful(512, 1 << 23, 10_000, 0.11, rng)
        # Sorted order would put the weak tail first; a shuffled sample
        # should not be monotone.
        assert not (np.diff(sample) >= 0).all()

    def test_deterministic_given_rng_seed(self):
        a = sample_tail_faithful(256, 1 << 23, 1000, 0.11, np.random.default_rng(5))
        b = sample_tail_faithful(256, 1 << 23, 1000, 0.11, np.random.default_rng(5))
        assert (a == b).all()

    def test_rejects_tiny_array(self, rng):
        with pytest.raises(ConfigError):
            sample_tail_faithful(4, 1000, 100, 0.1, rng)

    def test_rejects_reference_smaller_than_array(self, rng):
        with pytest.raises(ConfigError):
            sample_tail_faithful(128, 64, 100, 0.1, rng)

    def test_rejects_oversized_tail(self, rng):
        with pytest.raises(ConfigError):
            sample_tail_faithful(64, 1 << 20, 100, 0.1, rng, tail_count=40)

    def test_scale_invariance_of_min_over_sizes(self, rng):
        # Different array sizes should produce the same weakest page,
        # because it is pinned to the reference population.
        reference = 1 << 23
        minima = [
            sample_tail_faithful(n, reference, 10_000, 0.11, rng).min()
            for n in (256, 1024, 4096)
        ]
        assert max(minima) - min(minima) <= 2
