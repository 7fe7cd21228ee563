#!/usr/bin/env python3
"""Compare two sets of benchmark reports, metric by metric.

    python3 benchmarks/suite/compare.py --base A1.json A2.json A3.json \
        --change B1.json B2.json B3.json [--json OUT]

Inputs are ``run.py --json`` reports; each side pools every report it
is given, per workload.  For each (end-to-end metric, workload) the
medians and quartiles of both sides are printed with a verdict, using
the metric's direction and bound from ``BENCHMARK.json``:

* ``regressed`` -- the change's median is worse than the base's by more
  than the bound;
* ``unresolved`` -- the run-to-run spread of either side (quartile
  distance over median) exceeds the bound, and neither side's runs all
  beat the other side's;
* ``ok`` -- otherwise.

``setup_s`` is judged on its median alone: its bound exists so that work
moved into set-up shows, and a process launch is too short to time
steadily on a shared host.

Per-layer metrics have no bound; their medians are listed as ``info``.
Exits 1 when any verdict is ``regressed`` or ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

Samples = Dict[Tuple[str, str], List[float]]


def load(paths: Sequence[str]) -> Samples:
    """(workload, metric) -> values, pooled over every report."""
    samples: Samples = defaultdict(list)
    for path in paths:
        report = json.loads(Path(path).read_text())
        for workload, record in report["workloads"].items():
            for name, metric in record["metrics"].items():
                samples[(workload, name)].append(float(metric["value"]))
    return samples


def summary(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(
    base: Sequence[float], change: Sequence[float], better: str, bound: float, spread_gated: bool
) -> str:
    sign = 1.0 if better == "higher" else -1.0
    b1, bm, b3 = summary(base)
    c1, cm, c3 = summary(change)
    spread = max((b3 - b1) / abs(bm), (c3 - c1) / abs(cm))
    separated = (
        min(sign * c for c in change) > max(sign * b for b in base)
        or min(sign * b for b in base) > max(sign * c for c in change)
    )
    if spread_gated and spread > bound and not separated:
        return "unresolved"
    if sign * (bm - cm) / abs(bm) > bound:
        return "regressed"
    return "ok"


def compare(base: Samples, change: Samples, spec: dict) -> List[dict]:
    declared = {entry["name"]: entry for entry in spec["end_to_end"]}
    rows = []
    for workload, name in sorted(set(base) & set(change)):
        b, c = base[(workload, name)], change[(workload, name)]
        entry = declared.get(name)
        row = {
            "workload": workload,
            "metric": name,
            "base": summary(b),
            "change": summary(c),
            "runs": [len(b), len(c)],
            "verdict": (
                verdict(b, c, entry["better"], entry["bound"], name != "setup_s")
                if entry else "info"
            ),
        }
        if entry:
            row["bound"] = entry["bound"]
        rows.append(row)
    return rows


def render(rows: List[dict]) -> str:
    lines = [
        f"{'workload':<22} {'metric':<32} {'base median [q1, q3]':>34} "
        f"{'change median [q1, q3]':>34} {'delta':>8}  verdict"
    ]
    for row in rows:
        (b1, bm, b3), (c1, cm, c3) = row["base"], row["change"]
        delta = (cm - bm) / abs(bm) if bm else 0.0
        lines.append(
            f"{row['workload']:<22} {row['metric']:<32} "
            f"{bm:>12.5g} [{b1:>9.4g}, {b3:>9.4g}] {cm:>12.5g} [{c1:>9.4g}, {c3:>9.4g}] "
            f"{delta:>+8.1%}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True, help="reports of the parent commit")
    parser.add_argument("--change", nargs="+", required=True, help="reports of the change")
    parser.add_argument("--json", default=None, help="write the verdict rows here")
    args = parser.parse_args(argv)
    rows = compare(load(args.base), load(args.change), json.loads(SPEC.read_text()))
    print(render(rows))
    bad = [row for row in rows if row["verdict"] in ("regressed", "unresolved")]
    gated = sum(row["verdict"] != "info" for row in rows)
    print(f"\n{gated} gated metric/workload pairs; {len(bad)} regressed or unresolved")
    if args.json:
        Path(args.json).write_text(json.dumps(rows, indent=1) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
