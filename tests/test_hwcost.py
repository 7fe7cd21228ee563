"""Tests for the hardware cost models (paper Section 5.4)."""

import pytest

from repro.config import PAPER_PCM, TWLConfig
from repro.errors import ConfigError
from repro.hwcost.gates import (
    adder_gates,
    comparator_gates,
    feistel_rng_gates,
    mux_gates,
    register_gates,
    sequential_divider_gates,
)
from repro.hwcost.storage import (
    scheme_table_geometry,
    twl_storage_bits_per_page,
    twl_storage_overhead,
)
from repro.hwcost.synthesis import twl_design_overhead


class TestGatePrimitives:
    def test_linear_in_width(self):
        assert adder_gates(16) == 2 * adder_gates(8)
        assert comparator_gates(16) == 2 * comparator_gates(8)
        assert register_gates(10) == 60

    def test_mux_inputs(self):
        assert mux_gates(8, inputs=4) == 3 * mux_gates(8, inputs=2)

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            adder_gates(0)

    def test_divider_dominated_by_registers_and_adder(self):
        total = sequential_divider_gates(27)
        assert total > register_gates(54)

    def test_feistel_under_paper_budget(self):
        # "an 8-bit width Feistel Network ... costs less than 128 gates".
        assert feistel_rng_gates(bits=8) < 128

    def test_feistel_rejects_odd_width(self):
        with pytest.raises(ValueError):
            feistel_rng_gates(bits=7)


class TestStorage:
    def test_paper_bits_per_page(self):
        # 7 (WCT) + 27 (ET) + 23 (RT) + 23 (SWPT) = 80 bits per page.
        assert twl_storage_bits_per_page(PAPER_PCM, TWLConfig()) == 80

    def test_paper_overhead(self):
        overhead = twl_storage_overhead(PAPER_PCM, TWLConfig())
        assert overhead == pytest.approx(2.5e-3, rel=0.05)

    def test_scales_with_array_size(self):
        from repro.config import PCMConfig

        small = PCMConfig(capacity_bytes=1024 * 4096)
        assert twl_storage_bits_per_page(small, TWLConfig()) < 80

    def test_scheme_storage_shapes(self):
        for scheme in ("nowl", "startgap", "sr", "wrl", "bwl", "twl"):
            geometry = scheme_table_geometry(scheme)
            assert all(entries >= 1 and bits >= 1 for entries, bits in geometry.values())
        assert scheme_table_geometry("nowl") == {}

    def test_twl_tables_complete(self):
        assert set(scheme_table_geometry("twl")) == {
            "remap_table",
            "endurance_table",
            "pair_table",
            "write_counter_table",
        }

    def test_unknown_scheme(self):
        with pytest.raises(ConfigError):
            scheme_table_geometry("mystery")

    def test_rejects_bad_endurance_bits(self):
        with pytest.raises(ConfigError):
            twl_storage_bits_per_page(PAPER_PCM, TWLConfig(), endurance_bits=0)


class TestSynthesisReport:
    def test_report_near_paper_numbers(self):
        report = twl_design_overhead()
        assert report.storage_bits_per_page == 80
        assert report.rng_gates < 128
        # "718 gates according to our synthesis results" for the rest.
        assert report.datapath_gates == pytest.approx(718, rel=0.15)
        # "840 logic gates are estimated for the total".
        assert report.total_gates == pytest.approx(840, rel=0.15)

    def test_breakdown_keys(self):
        breakdown = twl_design_overhead().breakdown()
        assert set(breakdown) == {
            "storage_bits_per_page",
            "storage_overhead",
            "rng_gates",
            "datapath_gates",
            "total_gates",
        }


class TestProtectionBits:
    def test_secded_classic_widths(self):
        from repro.hwcost import secded_check_bits

        assert secded_check_bits(8) == 5
        assert secded_check_bits(64) == 8
        assert secded_check_bits(23) == 6
        assert secded_check_bits(7) == 5
        assert secded_check_bits(27) == 7

    def test_per_entry_costs(self):
        from repro.errors import ConfigError
        from repro.hwcost import protection_bits_per_entry

        assert protection_bits_per_entry(23, "none") == 0
        assert protection_bits_per_entry(23, "parity") == 1
        assert protection_bits_per_entry(23, "secded") == 6
        import pytest

        with pytest.raises(ConfigError):
            protection_bits_per_entry(23, "crc")

    def test_scheme_protection_overhead_ordering(self):
        from repro.hwcost import protection_storage_overhead

        none = protection_storage_overhead("twl_swp", "none")
        parity = protection_storage_overhead("twl_swp", "parity")
        secded = protection_storage_overhead("twl_swp", "secded")
        assert none == 0.0
        assert 0.0 < parity < secded
        # Parity on TWL's four per-page tables: 4 extra bits / 4 KB page.
        assert parity == 4 / (4096 * 8)
