"""Additional hardware-cost coverage: scaling behaviour and consistency."""

from repro.config import PCMConfig, TWLConfig
from repro.hwcost.gates import (
    comparator_gates,
    feistel_rng_gates,
    sequential_divider_gates,
)
from repro.hwcost.storage import scheme_table_geometry, twl_storage_bits_per_page
from repro.hwcost.synthesis import twl_design_overhead


def _total_bits(scheme):
    return sum(entries * bits for entries, bits in scheme_table_geometry(scheme).values())


class TestScaling:
    def test_rng_cost_grows_with_width(self):
        assert feistel_rng_gates(bits=16) > feistel_rng_gates(bits=8)

    def test_divider_grows_with_operand_width(self):
        assert sequential_divider_gates(32) > sequential_divider_gates(16)

    def test_address_width_drives_storage(self):
        small = PCMConfig(capacity_bytes=(1 << 20) * 4096)  # 2^20 pages
        large = PCMConfig(capacity_bytes=(1 << 23) * 4096)  # 2^23 pages
        delta = twl_storage_bits_per_page(large) - twl_storage_bits_per_page(small)
        # RT and SWPT each gain 3 bits per entry.
        assert delta == 6

    def test_wct_width_in_storage(self):
        wide = TWLConfig(write_counter_bits=10, toss_up_interval=32)
        assert (
            twl_storage_bits_per_page(twl=wide)
            == twl_storage_bits_per_page(twl=TWLConfig()) + 3
        )


class TestCrossSchemeComparison:
    def test_twl_total_storage_close_to_wrl(self):
        """TWL's per-page state is within 2x of WRL's (the paper argues
        the overhead is comparable to prior PV-aware schemes)."""
        twl_bits = _total_bits("twl")
        wrl_bits = _total_bits("wrl")
        assert twl_bits < 2 * wrl_bits
        assert wrl_bits < 2 * twl_bits

    def test_sr_is_registers_only(self):
        sr_bits = _total_bits("sr")
        # No per-page tables: total device storage is tens of bits.
        assert sr_bits < 256

    def test_startgap_cheapest(self):
        startgap = _total_bits("startgap")
        others = [
            _total_bits(name)
            for name in ("sr", "wrl", "bwl", "twl")
        ]
        assert all(startgap <= other for other in others)


class TestReportConsistency:
    def test_total_is_sum(self):
        report = twl_design_overhead()
        assert report.total_gates == report.rng_gates + report.datapath_gates

    def test_datapath_includes_all_comparators(self):
        report = twl_design_overhead()
        floor = (
            sequential_divider_gates(27)
            + comparator_gates(8)
            + comparator_gates(7)
        )
        assert report.datapath_gates >= floor

    def test_small_array_smaller_overhead(self):
        small = PCMConfig(capacity_bytes=1024 * 4096)
        report = twl_design_overhead(pcm=small)
        assert report.storage_bits_per_page < 80
