"""Figure 7 — choosing the toss-up interval.

(a) Swap/write ratio (toss-up swaps per demand write) as a function of
the toss-up interval, geometric-mean across the PARSEC benchmarks
("the ratio drops in proportion as the toss-up interval increases").

(b) Lifetime under the scan attack as a function of the toss-up
interval, against the 3-year server-replacement floor the paper uses to
justify interval 32.

Note on (b): the paper reports scan lifetime *decreasing* with the
interval.  In the mechanistic implementation, a scan stream writes both
members of every pair equally, so the toss-up cannot bias wear inside a
pair regardless of how often it runs (the paper's own Case-4 analysis);
more frequent toss-ups only add swap-write wear.  The measured trend is
therefore overhead-dominated — see EXPERIMENTS.md for the discussion.

Both panels run through ``repro.exec``: each (interval, benchmark)
swap-ratio measurement and each interval's scan run is one independent
cell, so the whole sweep parallelizes under ``setup.jobs``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..analysis.calibration import attack_ideal_lifetime_years
from ..analysis.stats import geometric_mean
from ..analysis.tables import ResultTable
from ..exec import ExperimentCell, attack_cell, overheads_cell, run_setup_cells
from .setups import ExperimentSetup, default_setup

#: The interval sweep of Figure 7.  The paper's axis tops out at 128,
#: which a 7-bit write counter cannot actually reach; 127 is the widest
#: interval the Table-1 counter supports and stands in for it.
INTERVALS: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 127)

#: Paper's server-replacement floor (years).
MINIMUM_REQUIREMENT_YEARS = 3.0


def _ratio_cells(interval: int, setup: ExperimentSetup) -> List[ExperimentCell]:
    config = setup.twl_config.with_interval(interval)
    return [
        overheads_cell(
            "twl",
            name,
            trace_writes=setup.trace_writes,
            drive_writes=setup.overhead_writes,
            scaled=setup.scaled,
            seed=setup.seed,
            scheme_kwargs={"config": config},
            label=f"interval={interval}",
        )
        for name in setup.benchmarks
    ]


def _scan_cell(interval: int, setup: ExperimentSetup) -> ExperimentCell:
    config = setup.twl_config.with_interval(interval)
    return attack_cell(
        "twl_swp",
        "scan",
        scaled=setup.scaled,
        seed=setup.seed,
        scheme_kwargs={"config": config},
        label=f"interval={interval}",
    )


def _gmean_swap_ratio(overheads) -> float:
    # Guard the gmean against an exactly-zero ratio at long intervals.
    return geometric_mean(
        [max(o.extra_stats["toss_up_swap_ratio"], 1e-9) for o in overheads]
    )


def run(setup: Optional[ExperimentSetup] = None) -> ResultTable:
    """Reproduce both panels over the interval sweep."""
    setup = setup or default_setup()
    ideal = attack_ideal_lifetime_years()
    per_interval = len(setup.benchmarks)
    cells: List[ExperimentCell] = []
    for interval in INTERVALS:
        cells.extend(_ratio_cells(interval, setup))
        cells.append(_scan_cell(interval, setup))
    results = run_setup_cells(cells, setup)
    table = ResultTable(["toss_up_interval", "swap_write_ratio", "scan_lifetime_years"])
    for position, interval in enumerate(INTERVALS):
        offset = position * (per_interval + 1)
        overheads = results[offset : offset + per_interval]
        scan = results[offset + per_interval]
        table.add_row(
            toss_up_interval=interval,
            swap_write_ratio=round(_gmean_swap_ratio(overheads), 4),
            scan_lifetime_years=round(scan.lifetime_fraction * ideal, 2),
        )
    return table


def main() -> None:
    """Print the sweep."""
    print(
        run().render(
            precision=4,
            title=(
                "Figure 7 — toss-up interval: swap/write ratio (a) and scan "
                f"lifetime (b); floor = {MINIMUM_REQUIREMENT_YEARS} years"
            ),
        )
    )


if __name__ == "__main__":
    main()
