"""Tests for the latency and performance models."""

import pytest

from repro.config import TWLConfig
from repro.errors import ConfigError
from repro.sim.metrics import SchemeOverheads
from repro.timing.latency import control_path_cycles
from repro.timing.perf_model import (
    PerfModelConfig,
    normalized_execution_time,
    swap_exposure,
)
from repro.traces.parsec import get_profile


def _overheads(scheme, swap_ratio):
    return SchemeOverheads(
        scheme=scheme,
        workload="test",
        demand_writes=1000,
        swap_write_ratio=swap_ratio,
        swap_event_ratio=swap_ratio / 2,
        extra_stats={},
    )


class TestControlPath:
    def test_nowl_free(self):
        assert control_path_cycles("nowl") == 0.0

    def test_bwl_heaviest(self):
        # "two bloom filters and a cold-hot list are accessed during
        # every write" — BWL's control path dominates all schemes.
        schemes = ("startgap", "sr", "wrl", "twl")
        bwl = control_path_cycles("bwl")
        assert all(control_path_cycles(s) < bwl for s in schemes)

    def test_twl_amortized_by_interval(self):
        fast = control_path_cycles("twl", twl_config=TWLConfig(toss_up_interval=1))
        slow = control_path_cycles("twl", twl_config=TWLConfig(toss_up_interval=64))
        assert slow < fast

    def test_unknown_scheme(self):
        with pytest.raises(ConfigError):
            control_path_cycles("mystery")


class TestPerfModel:
    def test_exposure_by_scheme(self):
        config = PerfModelConfig()
        assert swap_exposure("nowl", config) == 0.0
        assert swap_exposure("sr", config) == 1.0
        assert swap_exposure("twl", config) == 0.5

    def test_normalized_time_above_one(self):
        profile = get_profile("vips")
        value = normalized_execution_time("twl", _overheads("twl", 0.03), profile)
        assert 1.0 < value < 1.1

    def test_bwl_slower_than_twl(self):
        profile = get_profile("vips")
        bwl = normalized_execution_time("bwl", _overheads("bwl", 0.05), profile)
        twl = normalized_execution_time("twl", _overheads("twl", 0.03), profile)
        assert bwl > twl

    def test_memory_boundedness_scales_overhead(self):
        overheads = _overheads("twl", 0.03)
        vips = normalized_execution_time("twl", overheads, get_profile("vips"))
        stream = normalized_execution_time(
            "twl", overheads, get_profile("streamcluster")
        )
        assert vips > stream

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            PerfModelConfig(blocking_swap_exposure=2.0)

    def test_unknown_scheme_exposure(self):
        with pytest.raises(ConfigError):
            swap_exposure("mystery", PerfModelConfig())
