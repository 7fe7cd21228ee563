"""Integration tests: every experiment module runs at the quick scale."""

import pytest

from repro.experiments import ablations, energy, fig6, fig7, fig8, fig9, overhead, table1, table2
from repro.experiments.setups import (
    ATTACKS,
    BENCHMARKS,
    ExperimentSetup,
    default_setup,
    quick_setup,
)
from repro.config import ScaledArrayConfig


@pytest.fixture(scope="module")
def setup() -> ExperimentSetup:
    """A tiny-but-valid setup so the whole matrix runs in seconds."""
    quick = quick_setup()
    return ExperimentSetup(
        scaled=ScaledArrayConfig(n_pages=128, endurance_mean=1536.0),
        benchmarks=("canneal", "vips"),
        trace_writes=30_000,
        overhead_writes=20_000,
    )


class TestSetups:
    def test_default_covers_all_benchmarks(self):
        assert default_setup().benchmarks == BENCHMARKS

    def test_quick_is_smaller(self):
        assert quick_setup().n_pages < default_setup().n_pages


class TestTable1:
    def test_renders(self, setup):
        table = table1.run(setup)
        assert len(table) > 10
        assert "32.0 GiB" in table.render()


class TestTable2:
    def test_rows_and_sanity(self, setup):
        table = table2.run(setup)
        rows = {row["benchmark"]: row for row in table.rows()}
        assert set(rows) == {"canneal", "vips"}
        for row in rows.values():
            # Reproduced ideal within rounding of the paper's column.
            assert row["ideal_years"] == pytest.approx(row["ideal_paper"], rel=0.07)
            # No-WL lifetime within a factor band of the paper's.
            assert row["nowl_years"] == pytest.approx(row["nowl_paper"], rel=0.5)


class TestFig6:
    def test_matrix_shape(self, setup):
        table = fig6.run(setup)
        assert len(table) == 5
        columns = set(table.columns)
        assert {"scheme", "gmean_years"} <= columns
        for attack in ATTACKS:
            assert f"{attack}_years" in columns

    def test_quick_death_report(self, setup):
        report = fig6.quick_death_report(setup)
        schemes = {row["scheme"] for row in report.rows()}
        assert "bwl" in schemes  # the paper's 98-second breakdown


class TestFig7:
    def test_sweep(self, setup):
        table = fig7.run(setup)
        ratios = [row["swap_write_ratio"] for row in table.rows()]
        intervals = [row["toss_up_interval"] for row in table.rows()]
        assert intervals == list(fig7.INTERVALS)
        # Swap ratio must fall monotonically (roughly 1/interval).
        assert ratios[0] > 5 * ratios[-1]
        assert ratios[0] > 0.1


class TestFig8:
    def test_matrix(self, setup):
        table = fig8.run(setup)
        rows = table.rows()
        assert rows[-1]["benchmark"] == "gmean"
        gmean = rows[-1]
        # Orderings the paper reports: PV-aware schemes beat SR; every
        # scheme beats NOWL by an order of magnitude.
        assert gmean["twl"] > gmean["sr"]
        assert gmean["bwl"] > gmean["sr"]
        assert gmean["nowl"] < 0.1


class TestFig9:
    def test_matrix(self, setup):
        table = fig9.run(setup)
        rows = table.rows()
        assert rows[-1]["benchmark"] == "average"
        average = rows[-1]
        assert 1.0 < average["twl"] < 1.1
        assert average["bwl"] > average["twl"]


class TestEnergy:
    def test_matrix(self, setup):
        table = energy.run(setup)
        average = table.rows()[-1]
        assert average["benchmark"] == "average"
        assert average["bwl"] > average["sr"]
        for scheme in ("bwl", "sr", "twl"):
            assert 0.0 < average[scheme] < 1.0


class TestOverhead:
    def test_report(self, setup):
        table = overhead.run(setup)
        quantities = {row["quantity"] for row in table.rows()}
        assert "total gates" in quantities


class TestAblations:
    def test_pairing(self, setup):
        table = ablations.pairing_ablation(setup)
        assert len(table) == 3

    def test_inter_pair(self, setup):
        table = ablations.inter_pair_interval_ablation(setup)
        overheads = [row["overhead_ratio"] for row in table.rows()]
        assert overheads[0] > overheads[-1]  # shorter interval, more wear

    def test_sigma(self, setup):
        table = ablations.sigma_ablation(setup)
        rows = table.rows()
        assert rows[0]["sigma_fraction"] == 0.0
        # Without PV both schemes are near-ideal under random writes.
        assert rows[0]["sr_years"] > rows[-1]["sr_years"]

    def test_remaining_endurance(self, setup):
        table = ablations.remaining_endurance_ablation(setup)
        assert {row["mode"] for row in table.rows()} == {"initial", "remaining"}

    def test_retirement(self, setup):
        table = ablations.retirement_ablation(setup)
        rows = {row["scheme"]: row for row in table.rows()}
        assert "twl_swp" in rows
        retire_rows = [r for n, r in rows.items() if n.startswith("retire")]
        assert len(retire_rows) == len(ablations.RETIREMENT_MARGINS)

    def test_footprint(self, setup):
        table = ablations.footprint_ablation(setup)
        assert len(table) == len(ablations.FOOTPRINT_FRACTIONS)

    def test_sr_levels(self, setup):
        table = ablations.sr_level_ablation(setup)
        rows = {row["scheme"]: row for row in table.rows()}
        # The single-level sweep dies quickly under the repeat attack —
        # the reason SR needs its second level.
        assert rows["sr_single"]["repeat"] < rows["sr"]["repeat"]


class TestResilienceSweep:
    def test_table_shape_and_deltas(self):
        from repro.experiments import resilience

        tiny = ExperimentSetup(
            scaled=ScaledArrayConfig(n_pages=64, endurance_mean=768.0),
            benchmarks=("canneal",),
            trace_writes=5_000,
            overhead_writes=5_000,
        )
        table = resilience.resilience_sweep(
            tiny,
            schemes=("twl_swp", "startgap"),
            rates=(1e-3,),
        )
        rows = list(table.rows())
        # Per scheme: one baseline + one row per protection.
        assert len(rows) == 2 * (1 + 3)
        by_scheme = {}
        for row in rows:
            by_scheme.setdefault(row["scheme"], []).append(row)
        for scheme, scheme_rows in by_scheme.items():
            baseline = scheme_rows[0]
            assert baseline["protection"] == "-"
            assert baseline["rate"] == 0.0
            assert baseline["delta_years"] == 0.0
            secded = [r for r in scheme_rows if r["protection"] == "secded"]
            assert secded and all(r["delta_years"] == 0.0 for r in secded)
            faulted = [r for r in scheme_rows if r["rate"] > 0]
            assert all(r["injected"] > 0 for r in faulted)
            # Check-bit cost grows with protection strength.
            none_cost = [r for r in scheme_rows if r["protection"] == "none"]
            parity = [r for r in scheme_rows if r["protection"] == "parity"]
            assert none_cost[0]["prot_overhead"] == 0.0
            assert 0.0 < parity[0]["prot_overhead"] < secded[0]["prot_overhead"]
