"""Tests for PARSEC workload profiles and trace synthesis."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.traces.parsec import (
    BenchmarkProfile,
    PARSEC_TABLE2,
    get_profile,
    make_benchmark_trace,
)


class TestTable2Data:
    def test_all_thirteen_present(self):
        assert len(PARSEC_TABLE2) == 13

    def test_paper_values_verbatim(self):
        vips = get_profile("vips")
        assert vips.write_bandwidth_mbps == 3309.0
        assert vips.ideal_lifetime_years == 16.0
        assert vips.lifetime_no_wl_years == 0.9

    def test_concentrations_positive(self):
        for profile in PARSEC_TABLE2.values():
            assert profile.concentration > 1.0

    def test_unknown_benchmark(self):
        with pytest.raises(TraceError):
            get_profile("doom")

    def test_memory_boundedness_ordering(self):
        vips = get_profile("vips").memory_boundedness()
        streamcluster = get_profile("streamcluster").memory_boundedness()
        assert vips == pytest.approx(1.0)
        assert streamcluster < 0.6

    def test_profile_validation(self):
        with pytest.raises(TraceError):
            BenchmarkProfile("x", -1.0, 10.0, 1.0)
        with pytest.raises(TraceError):
            BenchmarkProfile("x", 1.0, 1.0, 10.0)  # no-WL above ideal
        with pytest.raises(TraceError):
            BenchmarkProfile("x", 1.0, 10.0, 1.0, footprint_fraction=0.0)


class TestTraceSynthesis:
    def test_max_share_matches_concentration(self):
        profile = get_profile("canneal")
        trace = make_benchmark_trace(profile, 1024, 200_000, seed=1)
        histogram = np.bincount(trace.write_pages(), minlength=1024)
        concentration = histogram.max() / trace.n_writes * 1024
        assert concentration == pytest.approx(profile.concentration, rel=0.15)

    def test_footprint_respected(self):
        profile = get_profile("canneal")
        trace = make_benchmark_trace(profile, 1024, 100_000, seed=1)
        assert trace.footprint_pages <= int(1024 * 0.25) + 1

    def test_footprint_override(self):
        profile = get_profile("canneal")
        trace = make_benchmark_trace(
            profile, 1024, 100_000, seed=1, footprint_override=1.0
        )
        assert trace.footprint_pages > 512

    def test_diffuse_workload_bumps_footprint(self):
        # dedup has concentration 14: a 1% footprint is unreachable and
        # must be bumped instead of crashing.
        profile = get_profile("dedup")
        trace = make_benchmark_trace(
            profile, 1024, 50_000, seed=1, footprint_override=0.01
        )
        assert trace.n_writes == 50_000

    def test_deterministic_per_seed(self):
        profile = get_profile("x264")
        a = make_benchmark_trace(profile, 256, 10_000, seed=9)
        b = make_benchmark_trace(profile, 256, 10_000, seed=9)
        assert (a.pages == b.pages).all()

    def test_different_benchmarks_differ(self):
        a = make_benchmark_trace(get_profile("x264"), 256, 10_000, seed=9)
        b = make_benchmark_trace(get_profile("vips"), 256, 10_000, seed=9)
        assert not (a.pages == b.pages).all()

    def test_active_set_scattered(self):
        profile = get_profile("canneal")
        trace = make_benchmark_trace(profile, 1024, 100_000, seed=1)
        touched = np.unique(trace.write_pages())
        # Active pages should span the address space, not one corner.
        assert touched.min() < 200
        assert touched.max() > 800

    def test_includes_reads_when_asked(self):
        profile = get_profile("ferret")
        trace = make_benchmark_trace(profile, 256, 30_000, seed=2, include_reads=True)
        assert trace.write_fraction == pytest.approx(profile.write_fraction, abs=0.03)
