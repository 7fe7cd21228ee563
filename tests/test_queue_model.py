"""Tests for the discrete-event write-queue timing model."""

import pytest

from repro.config import TimingConfig
from repro.errors import ConfigError
from repro.sim.metrics import SchemeOverheads
from repro.timing.queue_model import (
    QueueModelConfig,
    queue_normalized_execution_time,
    simulate_write_queue,
)
from repro.traces.parsec import get_profile


def _overheads(scheme, swap_write_ratio, swap_event_ratio):
    return SchemeOverheads(
        scheme=scheme,
        workload="test",
        demand_writes=1000,
        swap_write_ratio=swap_write_ratio,
        swap_event_ratio=swap_event_ratio,
        extra_stats={},
    )


class TestQueueSimulation:
    def test_mm1_wait_matches_theory(self):
        """Sanity: with deterministic service, the M/D/1 mean wait is
        rho * S / (2 * (1 - rho)); the simulated queue must land close."""
        timing = TimingConfig()
        rho = 0.6
        result = simulate_write_queue(
            "nowl", 0.0, 0.0, rho, timing=timing,
            config=QueueModelConfig(n_requests=200_000),
        )
        service = timing.write_cycles
        theoretical_wait = rho * service / (2 * (1 - rho))
        assert result.mean_wait_cycles == pytest.approx(theoretical_wait, rel=0.1)

    def test_swap_events_stretch_sojourn(self):
        quiet = simulate_write_queue("sr", 0.0, 0.0, 0.5)
        swappy = simulate_write_queue("sr", 0.05, 2.0, 0.5)
        assert swappy.mean_sojourn_cycles > quiet.mean_sojourn_cycles

    def test_utilization_amplifies_overhead(self):
        low = simulate_write_queue("sr", 0.02, 2.0, 0.3)
        high = simulate_write_queue("sr", 0.02, 2.0, 0.85)
        low_base = simulate_write_queue("nowl", 0.0, 0.0, 0.3)
        high_base = simulate_write_queue("nowl", 0.0, 0.0, 0.85)
        low_ratio = low.mean_sojourn_cycles / low_base.mean_sojourn_cycles
        high_ratio = high.mean_sojourn_cycles / high_base.mean_sojourn_cycles
        assert high_ratio > low_ratio

    def test_deterministic(self):
        a = simulate_write_queue("twl", 0.01, 2.0, 0.5)
        b = simulate_write_queue("twl", 0.01, 2.0, 0.5)
        assert a.mean_sojourn_cycles == b.mean_sojourn_cycles

    def test_validation(self):
        with pytest.raises(ConfigError):
            simulate_write_queue("nowl", -0.1, 0.0, 0.5)
        with pytest.raises(ConfigError):
            simulate_write_queue("nowl", 0.0, -1.0, 0.5)
        with pytest.raises(ConfigError):
            simulate_write_queue("nowl", 0.0, 0.0, 1.5)
        with pytest.raises(ConfigError):
            QueueModelConfig(base_utilization=0.9, peak_utilization=0.5)
        with pytest.raises(ConfigError):
            QueueModelConfig(n_requests=10)


class TestNormalizedTime:
    def test_above_one_for_real_schemes(self):
        profile = get_profile("vips")
        value = queue_normalized_execution_time(
            "twl", _overheads("twl", 0.03, 0.015), profile
        )
        assert 1.0 < value < 1.3

    def test_bwl_worst(self):
        profile = get_profile("canneal")
        bwl = queue_normalized_execution_time(
            "bwl", _overheads("bwl", 0.06, 0.01), profile
        )
        twl = queue_normalized_execution_time(
            "twl", _overheads("twl", 0.03, 0.015), profile
        )
        assert bwl > twl

    def test_agrees_with_analytic_model_on_the_outlier(self):
        """Both timing models single out BWL as the slowest scheme.

        The exact SR/TWL ordering is model-dependent (the queue model
        serializes every migration write; the analytic model gives TWL's
        pair-local swaps a write-queue discount), but the Figure-9
        headline — BWL pays the most — must hold in both.
        """
        from repro.timing.perf_model import normalized_execution_time

        profile = get_profile("vips")
        pairs = {}
        for scheme, swaps, events in (
            ("bwl", 0.06, 0.01),
            ("sr", 0.016, 0.008),
            ("twl", 0.03, 0.015),
        ):
            overheads = _overheads(scheme, swaps, events)
            pairs[scheme] = (
                queue_normalized_execution_time(scheme, overheads, profile),
                normalized_execution_time(scheme, overheads, profile),
            )
        for column in (0, 1):
            assert pairs["bwl"][column] == max(p[column] for p in pairs.values())

    def test_saturation_detected(self):
        profile = get_profile("vips")
        overheads = _overheads("bwl", 2.0, 0.5)  # absurd migration load
        with pytest.raises(ConfigError):
            queue_normalized_execution_time("bwl", overheads, profile)

    def test_memory_boundedness_matters(self):
        overheads = _overheads("twl", 0.03, 0.015)
        vips = queue_normalized_execution_time("twl", overheads, get_profile("vips"))
        stream = queue_normalized_execution_time(
            "twl", overheads, get_profile("streamcluster")
        )
        assert vips > stream
