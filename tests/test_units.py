"""Tests for repro.units."""

import pytest

from repro import units


class TestBandwidth:
    def test_mbps_is_decimal(self):
        assert units.mbps_to_bytes_per_second(1.0) == 1_000_000

    def test_zero_allowed(self):
        assert units.mbps_to_bytes_per_second(0.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            units.mbps_to_bytes_per_second(-1.0)


class TestYears:
    def test_one_year_seconds(self):
        assert units.SECONDS_PER_YEAR == pytest.approx(31_557_600.0)


class TestFormatDuration:
    def test_seconds(self):
        assert units.format_duration(98.0) == "98.0 s"

    def test_minutes(self):
        assert units.format_duration(600.0) == "10.0 min"

    def test_hours(self):
        assert units.format_duration(7200.0) == "2.0 h"

    def test_days(self):
        assert units.format_duration(10 * units.SECONDS_PER_DAY) == "10.0 days"

    def test_years(self):
        assert "years" in units.format_duration(2.8 * units.SECONDS_PER_YEAR)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            units.format_duration(-1.0)


class TestFormatSize:
    def test_bytes(self):
        assert units.format_size(100) == "100 B"

    def test_kib(self):
        assert units.format_size(4096) == "4.0 KiB"

    def test_gib(self):
        assert units.format_size(32 * units.GIB) == "32.0 GiB"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            units.format_size(-1)
