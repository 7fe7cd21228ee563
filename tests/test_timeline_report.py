"""Tests for the Markdown report builder."""

import pytest

from repro.analysis.report import build_report
from repro.config import ScaledArrayConfig
from repro.experiments.setups import ExperimentSetup


class TestReport:
    @pytest.fixture(scope="class")
    def tiny_setup(self):
        return ExperimentSetup(
            scaled=ScaledArrayConfig(n_pages=128, endurance_mean=1536.0),
            benchmarks=("vips",),
            trace_writes=20_000,
            overhead_writes=15_000,
        )

    def test_single_section(self, tiny_setup):
        text = build_report(tiny_setup, sections=("overhead",))
        assert "# TWL reproduction report" in text
        assert "Section 5.4" in text
        assert "Figure 6" not in text

    def test_fig6_section_runs(self, tiny_setup):
        text = build_report(tiny_setup, sections=("fig6",))
        assert "Figure 6" in text
        assert "twl_swp" in text

    def test_unknown_section_rejected(self, tiny_setup):
        with pytest.raises(ValueError):
            build_report(tiny_setup, sections=("fig99",))
