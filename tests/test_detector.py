"""Tests for the response-time swap detector."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.attacks.detector import SwapDetector
from repro.errors import ConfigError


class TestSwapDetector:
    def test_learns_baseline_then_detects(self):
        detector = SwapDetector(threshold_factor=1.5, warmup=4)
        for _ in range(4):
            assert not detector.observe(2000.0)
        assert not detector.observe(2000.0)
        assert detector.observe(6000.0)
        assert detector.detections == 1

    def test_baseline_tracks_minimum(self):
        detector = SwapDetector(warmup=2)
        detector.observe(5000.0)
        detector.observe(5000.0)
        # A faster plain response lowers the baseline instead of firing.
        assert not detector.observe(2000.0)
        assert detector.observe(4000.0)

    def test_threshold_factor_respected(self):
        detector = SwapDetector(threshold_factor=3.0, warmup=1)
        detector.observe(1000.0)
        assert not detector.observe(2500.0)
        assert detector.observe(3500.0)

    def test_rejects_bad_factor(self):
        with pytest.raises(ConfigError):
            SwapDetector(threshold_factor=1.0)

    def test_rejects_bad_warmup(self):
        with pytest.raises(ConfigError):
            SwapDetector(warmup=0)

    def test_rejects_nonpositive_latency(self):
        detector = SwapDetector()
        with pytest.raises(ValueError):
            detector.observe(0.0)

    def test_rejects_nonpositive_latency_in_a_batch(self):
        detector = SwapDetector()
        with pytest.raises(ValueError, match="positive"):
            detector.observe_batch(np.array([2000.0, -1.0]))

    def test_rejects_nonpositive_latency_after_warmup(self):
        detector = SwapDetector(warmup=2)
        detector.observe_batch(np.array([2000.0, 2000.0]))
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="positive"):
                detector.observe_batch(np.array([4000.0, bad]))
        assert detector.snapshot() == {"baseline": 2000.0, "detections": 0, "samples": 2}


_factors = st.one_of(st.sampled_from([1.5, 2.0, 3.0]), st.floats(1.001, 5.0))


class TestSegmentProtocol:
    """The batch side of the detector equals its scalar side."""

    @given(
        threshold_factor=_factors,
        warmup=st.integers(1, 6),
        multiples=st.lists(st.integers(1, 6), max_size=40),
        cut=st.integers(0, 40),
    )
    @settings(max_examples=200, deadline=None)
    # After warmup: a batch at or above the baseline (the one-comparison
    # form), and one that dips below it (the running-minimum form).
    @example(threshold_factor=1.5, warmup=2, multiples=[2, 3, 2, 2, 4, 5, 3], cut=2)
    @example(threshold_factor=1.5, warmup=2, multiples=[3, 4, 5, 1, 2, 6], cut=2)
    def test_observe_batch_equals_observe(self, threshold_factor, warmup, multiples, cut):
        scalar = SwapDetector(threshold_factor, warmup)
        batched = SwapDetector(threshold_factor, warmup)
        latencies = [1000.0 * multiple for multiple in multiples]
        flags = [scalar.observe(latency) for latency in latencies]
        got = np.concatenate(
            [batched.observe_batch(latencies[:cut]), batched.observe_batch(latencies[cut:])]
        )
        assert got.tolist() == flags
        assert batched.snapshot() == scalar.snapshot()

    @given(
        threshold_factor=_factors,
        warmup=st.integers(1, 6),
        unit=st.sampled_from([1.0, 3.0, 1000.0, 0.1]),
        history=st.lists(st.integers(1, 6), max_size=12),
        multiple=st.integers(1, 12),
    )
    @settings(max_examples=300, deadline=None)
    def test_segment_predicts_the_next_flag(
        self, threshold_factor, warmup, unit, history, multiple
    ):
        """Within the horizon, a multiple is flagged exactly when it
        reaches the stop count; past warmup the horizon is 1 only while
        a one-unit response would lower the baseline."""
        detector = SwapDetector(threshold_factor, warmup)
        for past in history:
            detector.observe(unit * past)
        horizon, stop_count = detector.segment(unit)
        assert horizon is None or horizon >= 1
        flagged = detector.observe(unit * multiple)
        assert flagged == (stop_count is not None and multiple >= stop_count)
        if len(history) >= warmup:
            assert (horizon == 1) == (min(history) > 1)
