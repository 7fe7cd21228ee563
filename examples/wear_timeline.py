#!/usr/bin/env python3
"""Watch wear leveling happen: wear-distribution timelines.

Drives the same scan attack into three schemes and snapshots the wear
Gini coefficient (0 = perfectly even wear) and the maximum wear fraction
along the way — the dynamics behind the Figure-6 lifetimes.

Run:  python examples/wear_timeline.py
"""

from repro.analysis.tables import format_table
from repro.attacks.registry import make_attack
from repro.config import ScaledArrayConfig
from repro.engine import SimulationEngine, WearTimelineObserver
from repro.pcm.stats import gini_coefficient
from repro.sim.drivers import AttackDriver
from repro.sim.runner import build_array
from repro.wearlevel.registry import make_scheme

SCHEMES = ("nowl", "sr", "twl_swp")
TOTAL_DEMAND = 200_000
SNAPSHOTS = 8


def main() -> None:
    scaled = ScaledArrayConfig(n_pages=256, endurance_mean=3072.0)
    samples = {}
    for scheme_name in SCHEMES:
        array = build_array(scaled)
        scheme = make_scheme(scheme_name, array, seed=2017)
        attack = make_attack("repeat", scheme.logical_pages, seed=2017)
        # One engine step per snapshot; the run stops at the first
        # page death, after a final sample.
        timeline = WearTimelineObserver()
        engine = SimulationEngine(
            scheme,
            AttackDriver(attack),
            batch_size=TOTAL_DEMAND // SNAPSHOTS,
            observers=(timeline,),
        )
        engine.run(TOTAL_DEMAND)
        samples[scheme_name] = timeline.samples

    axis = [demand for demand, _ in max(samples.values(), key=len)]
    for title, statistic in (
        ("Wear Gini over the repeat attack (lower = more even wear):", gini_coefficient),
        ("\nMaximum wear fraction (1.0 = first page death):", max),
    ):
        print(title + "\n")
        rows = []
        for index, demand in enumerate(axis):
            row = [demand]
            for scheme_name in SCHEMES:
                series = samples[scheme_name]
                row.append(
                    round(float(statistic(series[index][1])), 3)
                    if index < len(series)
                    else None
                )
            rows.append(row)
        print(format_table(["demand_writes"] + list(SCHEMES), rows, precision=3))

    print(
        "\nNOWL's Gini pegs near 1.0 (one page takes everything) and its\n"
        "max wear hits 1.0 almost immediately; SR flattens wear but cannot\n"
        "protect weak pages; TWL's toss-up plus inter-pair swaps spread\n"
        "wear while keeping the weakest frames coolest."
    )


if __name__ == "__main__":
    main()
