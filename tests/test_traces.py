"""Tests for trace containers and synthetic generators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TraceError
from repro.traces.request import MemoryRequest, OP_READ, OP_WRITE
from repro.traces.synth import (
    concentration_of_alpha,
    make_zipf_trace,
    zipf_alpha_for_concentration,
    zipf_weights,
)
from repro.traces.trace import Trace


class TestMemoryRequest:
    def test_write_flag(self):
        assert MemoryRequest(OP_WRITE, 5).is_write
        assert not MemoryRequest(OP_READ, 5).is_write

    def test_op_name(self):
        assert MemoryRequest(OP_READ, 0).op_name == "read"

    def test_rejects_bad_op(self):
        with pytest.raises(ValueError):
            MemoryRequest(7, 0)

    def test_rejects_negative_page(self):
        with pytest.raises(ValueError):
            MemoryRequest(OP_WRITE, -1)


class TestTrace:
    def test_writes_only_constructor(self):
        trace = Trace(np.full(4, OP_WRITE), [1, 2, 2, 3])
        assert trace.n_requests == 4
        assert trace.n_writes == 4
        assert trace.write_fraction == 1.0
        assert trace.footprint_pages == 3

    def test_requests_iterator(self):
        trace = Trace(np.full(2, OP_WRITE), [4, 5])
        requests = list(trace.requests())
        assert all(r.is_write for r in requests)
        assert [r.logical_page for r in requests] == [4, 5]

    def test_rejects_empty(self):
        with pytest.raises(TraceError):
            Trace(np.array([], dtype=np.uint8), np.array([], dtype=np.int64))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(TraceError):
            Trace(np.array([1], dtype=np.uint8), np.array([1, 2], dtype=np.int64))

    def test_rejects_bad_ops(self):
        with pytest.raises(TraceError):
            Trace(np.array([7], dtype=np.uint8), np.array([1], dtype=np.int64))


class TestZipf:
    def test_weights_normalized(self):
        weights = zipf_weights(100, 0.8)
        assert weights.sum() == pytest.approx(1.0)
        assert (np.diff(weights) <= 0).all()

    def test_alpha_zero_uniform(self):
        weights = zipf_weights(10, 0.0)
        assert np.allclose(weights, 0.1)

    def test_concentration_roundtrip(self):
        for target in (1.5, 5.0, 30.0, 58.3):
            alpha = zipf_alpha_for_concentration(1024, target)
            assert concentration_of_alpha(1024, alpha) == pytest.approx(target, rel=1e-3)

    def test_concentration_bounds(self):
        with pytest.raises(TraceError):
            zipf_alpha_for_concentration(100, 0.5)
        with pytest.raises(TraceError):
            zipf_alpha_for_concentration(100, 100.0)

    @given(st.floats(min_value=1.1, max_value=50.0))
    @settings(max_examples=30, deadline=None)
    def test_inversion_property(self, concentration):
        alpha = zipf_alpha_for_concentration(256, concentration)
        assert concentration_of_alpha(256, alpha) == pytest.approx(
            concentration, rel=1e-3
        )


class TestGenerators:
    def test_zipf_trace_shape(self, rng):
        trace = make_zipf_trace(64, 5000, 0.8, rng)
        assert trace.n_writes == 5000
        assert trace.pages.max() < 64

    def test_zipf_trace_concentration(self, rng):
        trace = make_zipf_trace(64, 60_000, 0.9, rng)
        histogram = np.bincount(trace.write_pages(), minlength=64)
        expected = concentration_of_alpha(64, 0.9) / 64
        assert histogram.max() / trace.n_writes == pytest.approx(expected, rel=0.15)

    def test_zipf_with_reads(self, rng):
        trace = make_zipf_trace(64, 3000, 0.5, rng, write_fraction=0.5)
        assert trace.write_fraction == pytest.approx(0.5, abs=0.02)

    def test_rejects_zero_writes(self, rng):
        with pytest.raises(TraceError):
            make_zipf_trace(8, 0, 0.5, rng)
