"""Tests for multi-seed replication."""

import pytest

from repro.config import ScaledArrayConfig
from repro.errors import SimulationError
from repro.sim.replicates import replicate_attack_lifetime

SCALED = ScaledArrayConfig(n_pages=128, endurance_mean=1536.0)


class TestReplication:
    def test_replicates_vary(self):
        summary = replicate_attack_lifetime(
            "sr", "scan", n_replicates=4, scaled=SCALED
        )
        assert summary.n_replicates == 4
        assert len(set(summary.fractions)) > 1  # seeds actually differ

    def test_summary_statistics_consistent(self):
        summary = replicate_attack_lifetime(
            "nowl", "scan", n_replicates=3, scaled=SCALED
        )
        assert summary.minimum <= summary.mean <= summary.maximum
        assert summary.std >= 0.0
        assert summary.confidence_halfwidth() >= 0.0

    def test_deterministic_given_root_seed(self):
        a = replicate_attack_lifetime("sr", "scan", n_replicates=2, scaled=SCALED, seed=7)
        b = replicate_attack_lifetime("sr", "scan", n_replicates=2, scaled=SCALED, seed=7)
        assert a.fractions == b.fractions

    def test_single_replicate_std_zero(self):
        summary = replicate_attack_lifetime(
            "nowl", "repeat", n_replicates=1, scaled=SCALED
        )
        assert summary.std == 0.0
        assert summary.confidence_halfwidth() == 0.0

    def test_rejects_zero_replicates(self):
        with pytest.raises(SimulationError):
            replicate_attack_lifetime("nowl", "repeat", n_replicates=0, scaled=SCALED)

    def test_scan_lifetime_stable_across_seeds(self):
        # Uniform-wear workloads have low seed sensitivity by design.
        summary = replicate_attack_lifetime(
            "sr", "scan", n_replicates=4, scaled=SCALED
        )
        assert summary.std < 0.2 * summary.mean
