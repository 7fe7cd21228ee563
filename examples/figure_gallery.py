#!/usr/bin/env python3
"""Render the paper's figures as SVG files.

Runs a reduced-scale version of Figures 6 and 7 plus a wear heatmap of
an attacked array, and writes vector figures under ``figures/``.

Run:  python examples/figure_gallery.py [output_dir]
"""

import sys

from repro.analysis.calibration import attack_ideal_lifetime_years
from repro.analysis.svg import (
    save_svg,
    svg_grouped_bars,
    svg_line_chart,
    svg_wear_heatmap,
)
from repro.attacks.registry import make_attack
from repro.config import ScaledArrayConfig, TWLConfig
from repro.engine import SimulationEngine
from repro.sim.drivers import AttackDriver
from repro.sim.lifetime import run_to_failure
from repro.sim.runner import build_array, measure_attack_lifetime
from repro.wearlevel.registry import make_scheme

SCALED = ScaledArrayConfig(n_pages=256, endurance_mean=3072.0)
SCHEMES = ("bwl", "sr", "twl_ap", "twl_swp", "nowl")
ATTACKS = ("repeat", "random", "scan", "inconsistent")


def figure6(out_dir: str) -> None:
    ideal = attack_ideal_lifetime_years()
    series = {}
    for scheme in SCHEMES:
        years = []
        for attack in ATTACKS:
            result = measure_attack_lifetime(scheme, attack, scaled=SCALED)
            years.append(result.lifetime_fraction * ideal)
        series[scheme] = years
        print(f"  figure 6: {scheme} done")
    svg = svg_grouped_bars(
        list(ATTACKS),
        series,
        title="Figure 6 — lifetime under attacks (years)",
        y_label="years",
    )
    save_svg(svg, f"{out_dir}/fig6_attacks.svg")


def figure7(out_dir: str) -> None:
    intervals = [1, 2, 4, 8, 16, 32, 64, 127]
    ratios = []
    for interval in intervals:
        config = TWLConfig(toss_up_interval=interval)
        array = build_array(SCALED)
        scheme = make_scheme("twl", array, seed=2017, config=config)
        attack = make_attack("random", scheme.logical_pages, seed=2017)
        SimulationEngine(scheme, AttackDriver(attack)).drive(40_000)
        ratios.append(scheme.toss_up_swap_ratio())
    print("  figure 7: sweep done")
    svg = svg_line_chart(
        intervals,
        {"swap/write ratio": ratios},
        title="Figure 7(a) — swap ratio vs toss-up interval",
        log_x=True,
        y_label="swap/write",
    )
    save_svg(svg, f"{out_dir}/fig7_interval.svg")


def wear_heatmaps(out_dir: str) -> None:
    for scheme_name in ("nowl", "twl_swp"):
        array = build_array(SCALED)
        scheme = make_scheme(scheme_name, array, seed=2017)
        attack = make_attack("inconsistent", scheme.logical_pages, seed=2017)
        run_to_failure(scheme, AttackDriver(attack))
        svg = svg_wear_heatmap(
            array.wear_fraction().tolist(),
            columns=32,
            title=f"Wear at first failure — {scheme_name} vs inconsistent attack",
        )
        save_svg(svg, f"{out_dir}/heatmap_{scheme_name}.svg")
        print(f"  heatmap: {scheme_name} done")


def main() -> None:
    out_dir = sys.argv[1] if len(sys.argv) > 1 else "figures"
    print(f"rendering SVG figures into {out_dir}/ ...")
    figure6(out_dir)
    figure7(out_dir)
    wear_heatmaps(out_dir)
    print("done.")


if __name__ == "__main__":
    main()
