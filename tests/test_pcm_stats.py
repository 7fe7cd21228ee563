"""Tests for wear statistics and the DCW model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.pcm.dcw import DataComparisonWriteModel
from repro.pcm.stats import gini_coefficient


class TestGini:
    def test_equal_sample_is_zero(self):
        assert gini_coefficient(np.ones(10)) == pytest.approx(0.0, abs=1e-12)

    def test_concentrated_sample_near_one(self):
        values = np.zeros(100)
        values[0] = 1.0
        assert gini_coefficient(values) > 0.95

    def test_zero_total(self):
        assert gini_coefficient(np.zeros(5)) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            gini_coefficient(np.array([1.0, -1.0]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            gini_coefficient(np.array([]))

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=2, max_size=50)
    )
    @settings(max_examples=100, deadline=None)
    def test_bounded_property(self, values):
        gini = gini_coefficient(np.array(values))
        assert -1e-9 <= gini < 1.0

    def test_scale_invariant(self):
        values = np.array([1.0, 2.0, 5.0, 9.0])
        assert gini_coefficient(values) == pytest.approx(
            gini_coefficient(values * 37.0)
        )


class TestDCW:
    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            DataComparisonWriteModel(flip_probability=1.5)
