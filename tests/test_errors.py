"""Tests for the exception hierarchy."""

import pytest

from repro import errors


class TestHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in (
            "ConfigError",
            "AddressError",
            "TableError",
            "TraceError",
            "SimulationError",
        ):
            exception_class = getattr(errors, name)
            assert issubclass(exception_class, errors.ReproError)

    def test_single_except_catches_everything(self):
        with pytest.raises(errors.ReproError):
            raise errors.TraceError("x")

    def test_repro_error_not_caught_as_value_error(self):
        # Library errors are distinct from builtin families.
        assert not issubclass(errors.ReproError, ValueError)
