"""Tests for analysis helpers: stats, tables, extrapolation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.extrapolate import targeted_attack_full_scale_seconds
from repro.analysis.stats import geometric_mean
from repro.analysis.tables import ResultTable, ascii_bar_chart, format_table
from repro.config import PAPER_PCM


class TestGeometricMean:
    def test_basic(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_single_value(self):
        assert geometric_mean([7.0]) == pytest.approx(7.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    @given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_between_min_and_max_property(self, values):
        gmean = geometric_mean(values)
        assert min(values) - 1e-9 <= gmean <= max(values) + 1e-9


class TestFormatTable:
    def test_renders_aligned(self):
        text = format_table(["a", "bb"], [[1, 2.5], [10, 3.25]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "2.500" in text

    def test_title(self):
        assert format_table(["x"], [[1]], title="T").startswith("T")

    def test_tiny_nonzero_floats_keep_their_magnitude(self):
        text = format_table(["rate", "cost"], [[1e-4, 7.6e-12]], precision=2)
        assert "0.0001" in text and "7.6e-12" in text
        assert format_table(["z"], [[0.0]], precision=2).endswith("0.00")

    def test_none_cell(self):
        assert "-" in format_table(["x"], [[None]])

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])


class TestAsciiBarChart:
    def test_renders_bars(self):
        chart = ascii_bar_chart(["one", "two"], [1.0, 2.0])
        lines = chart.splitlines()
        assert lines[1].count("#") == 2 * lines[0].count("#")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ascii_bar_chart(["x"], [-1.0])

    def test_rejects_mismatch(self):
        with pytest.raises(ValueError):
            ascii_bar_chart(["x"], [1.0, 2.0])


class TestResultTable:
    def test_add_and_render(self):
        table = ResultTable(["scheme", "years"])
        table.add_row(scheme="twl", years=4.4)
        assert "twl" in table.render()
        assert len(table) == 1

    def test_missing_cells_are_none(self):
        table = ResultTable(["a", "b"])
        table.add_row(a=1)
        assert table.rows()[0]["b"] is None

    def test_rejects_unknown_column(self):
        table = ResultTable(["a"])
        with pytest.raises(ValueError):
            table.add_row(zz=1)

    def test_column_access(self):
        table = ResultTable(["a"])
        table.add_row(a=1)
        table.add_row(a=2)
        assert table.column("a") == [1, 2]
        with pytest.raises(ValueError):
            table.column("b")


class TestExtrapolation:
    def test_targeted_attack_seconds_scale_free(self):
        # Same victim mechanism measured on different array sizes gives
        # the same absolute time: fraction scales as 1/n.
        seconds_small = targeted_attack_full_scale_seconds(0.02, 512, 8e9)
        seconds_large = targeted_attack_full_scale_seconds(0.01, 1024, 8e9)
        assert seconds_small == pytest.approx(seconds_large)

    def test_bwl_breakdown_is_minutes_not_years(self):
        # The measured BWL/inconsistent fraction (~0.015 at 1024 pages)
        # extrapolates to minutes at full scale, matching the paper's
        # order of magnitude ("98 seconds").
        seconds = targeted_attack_full_scale_seconds(0.015, 1024, 8e9, PAPER_PCM)
        assert 60 < seconds < 3600

    def test_rejects_negative_fraction(self):
        with pytest.raises(ValueError):
            targeted_attack_full_scale_seconds(-0.1, 100, 1e9)

    def test_rejects_bad_pages(self):
        with pytest.raises(ValueError):
            targeted_attack_full_scale_seconds(0.1, 0, 1e9)

