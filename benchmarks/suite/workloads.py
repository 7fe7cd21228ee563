"""Engine workloads of the benchmark, one per process.

Started by ``run.py``; prints ``READY`` once every engine of the
workload is built, then warms up, checks the batched path against the
per-write oracle, times rounds until ``--seconds`` is spent and prints
its result as the last stdout line::

    python3 benchmarks/suite/workloads.py --workload scan_batched --seed 1 \
        --seconds 20 --trace 0 [--smoke] [--setup-only] [--spans PATH]

Every round builds fresh objects and serves a fixed budget of demand
writes per scheme (the budgets below are part of the benchmark: a change
that claims a speed-up must not edit them).  Schemes are interleaved
within a round.  A round's time is the CPU time of its ``drive()`` call
at nominal host speed (``hostspeed.Calibrated``), and a scheme's time is
the median over the rounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import common
import hostspeed
from names import E2E_SCHEMES, ENGINE_SCHEMES, OVERHEAD, engine_layer_names

common.import_package()

from repro.attacks.registry import make_attack  # noqa: E402
from repro.config import ScaledArrayConfig, TWLConfig  # noqa: E402
from repro.engine import SimulationEngine, SnapshotPlan  # noqa: E402
from repro.sim.drivers import AttackDriver, StreamDriver  # noqa: E402
from repro.sim.runner import build_array  # noqa: E402
from repro.traces import FTLWorkloadStream  # noqa: E402
from repro.wearlevel.registry import make_scheme  # noqa: E402

from tracing import Tracer  # noqa: E402

#: Benchmark label -> (registry name, scheme kwargs).  ``twl_sparse``
#: fires toss-ups and inter-pair swaps rarely, so its batches stay on
#: TWL's whole-window fast path; dense ``twl`` exercises the planner.
SCHEMES: Dict[str, Tuple[str, dict]] = {
    "nowl": ("nowl", {}),
    "startgap": ("startgap", {}),
    "sr": ("sr", {}),
    "bwl": ("bwl", {}),
    "twl": ("twl", {}),
    "twl_sparse": (
        "twl",
        {"config": TWLConfig(toss_up_interval=120, inter_pair_swap_interval=4096)},
    ),
}

BATCH_SIZE = 4096
CHUNK_SIZE = 65536
#: Endurance so high that no page fails within any budget: every run
#: serves its whole budget, so every round does the same work.
ENDURANCE_MEAN = 1e9
#: Prefix of every (workload, scheme) compared against the per-write path.
ORACLE_WRITES = 20_000
#: Timed rounds a full run makes even when ``--seconds`` is spent.
MIN_ROUNDS = 5


@dataclass(frozen=True)
class Workload:
    #: Attack name, or ``"ftl"`` for the streamed FTL generator.
    source: str
    n_pages: int
    #: Demand writes per scheme per round, sized to roughly 0.1 s (up to
    #: 0.4 s where a snapshot must land in every round) on a 2-core x86
    #: host at the commit that defined the benchmark.  Short rounds give
    #: the median many rounds, each timed between two reference runs.
    budgets: Dict[str, int]
    #: Snapshot cadence in demand writes (0 = no snapshots).
    snapshot_every: int = 0


WORKLOADS: Dict[str, Workload] = {
    # Closed-form addresses: planning and apply_batch do the work.
    "scan_batched": Workload(
        "scan",
        1024,
        {
            "nowl": 8_000_000,
            "startgap": 3_000_000,
            "sr": 200_000,
            "bwl": 100_000,
            "twl": 150_000,
            "twl_sparse": 700_000,
        },
    ),
    # Adaptive: every engine step serves one write.
    "inconsistent_adaptive": Workload(
        "inconsistent",
        1024,
        {"nowl": 6_000, "sr": 5_000, "bwl": 5_000, "twl": 2_500},
    ),
    # Streamed reads+writes, hot/cold duplicates, 4x the working set,
    # and a snapshot at least once per scheme per round.
    "ftl_stream": Workload(
        "ftl",
        4096,
        {
            "nowl": 1_000_000,
            "startgap": 1_000_000,
            "sr": 250_000,
            "bwl": 250_000,
            "twl": 250_000,
            "twl_sparse": 500_000,
        },
        snapshot_every=250_000,
    ),
}


@dataclass
class Rig:
    """One freshly built engine plus the objects the trace wraps."""

    engine: SimulationEngine
    source: object


def build(
    workload: Workload,
    label: str,
    seed: int,
    batch_size: int,
    snapshot_every: int,
    snapshot_path: Optional[str],
) -> Rig:
    name, kwargs = SCHEMES[label]
    array = build_array(
        ScaledArrayConfig(n_pages=workload.n_pages, endurance_mean=ENDURANCE_MEAN, seed=seed)
    )
    scheme = make_scheme(name, array, seed=seed, **kwargs)
    if workload.source == "ftl":
        source: object = FTLWorkloadStream(
            scheme.logical_pages, seed=seed, chunk_size=CHUNK_SIZE
        )
        driver = StreamDriver(source, scheme.logical_pages)
    else:
        source = make_attack(workload.source, scheme.logical_pages, seed=seed)
        driver = AttackDriver(source)
    plan = None
    if snapshot_every and snapshot_path is not None:
        plan = SnapshotPlan(path=snapshot_path, every=snapshot_every, resume=False)
    engine = SimulationEngine(scheme, driver, batch_size=batch_size, snapshots=plan)
    return Rig(engine, source)


def instrument(tracer: Tracer, rig: Rig) -> None:
    """Wrap every layer boundary of ``rig`` in a span."""
    engine = rig.engine
    scheme = engine.scheme
    tracer.wrap(engine, "emit_snapshot", "engine.emit_snapshot")
    tracer.wrap(engine.driver, "next_batch", "drivers.next_batch")
    tracer.wrap(engine.driver, "observe_batch", "drivers.observe_batch")
    if isinstance(rig.source, FTLWorkloadStream):
        tracer.wrap(rig.source, "next_chunk", "traces.next_chunk")
    else:
        tracer.wrap(rig.source, "next_writes", "attacks.next_writes")
    tracer.wrap(scheme, "write_batch", "scheme.write_batch")
    # The scalar tier: write_batch falls back to per-write calls for
    # events it cannot vectorize.
    tracer.wrap(scheme, "write", "scheme.write")
    tracer.wrap(scheme.array, "apply_batch", "pcm.apply")
    tracer.wrap(scheme.array, "apply_write_counts", "pcm.apply")


class Runner:
    def __init__(self, args: argparse.Namespace, work: str) -> None:
        self.name = args.workload
        self.workload = WORKLOADS[args.workload]
        self.seed = args.seed
        self.divisor = common.SMOKE_DIVISOR if args.smoke else 1
        self.labels = [s for s in ENGINE_SCHEMES if s in self.workload.budgets]
        self.work = work
        self.checks = common.Checks()

    def budget(self, label: str) -> int:
        return self.workload.budgets[label] // self.divisor

    def rig(self, label: str, batch_size: int = BATCH_SIZE) -> Rig:
        return build(
            self.workload,
            label,
            self.seed,
            batch_size,
            self.workload.snapshot_every // self.divisor,
            f"{self.work}/{label}.snap",
        )

    def serve(
        self, label: str, clock: hostspeed.Calibrated, tracer: Optional[Tracer], run_id: str
    ) -> Tuple[float, str, Rig]:
        """One timed run of ``label``'s budget on fresh objects; returns
        its CPU seconds at nominal host speed, digest and objects."""
        rig = self.rig(label)
        budget = self.budget(label)
        if tracer is None:
            served, elapsed = clock.time(rig.engine.drive, budget)
        else:
            instrument(tracer, rig)
            tracer.begin_run(run_id)
            served, elapsed = clock.time(tracer.call, "engine.drive", rig.engine.drive, budget)
        self.checks.check(
            served == budget, f"{run_id}: served {served} of {budget} demand writes"
        )
        return elapsed, common.engine_digest(rig.engine, served), rig

    def oracle(self) -> None:
        """The batched path must equal the per-write path on a prefix."""
        writes = ORACLE_WRITES // self.divisor
        for label in self.labels:
            states = []
            for batch_size in (1, BATCH_SIZE):
                engine = self.rig(label, batch_size).engine
                states.append(common.engine_digest(engine, engine.drive(writes)))
            self.checks.check(
                states[0] == states[1],
                f"{self.name}/{label}: batched path differs from per-write path "
                f"over {writes} demand writes",
            )


def run_rounds(
    runner: Runner, seconds: float, min_rounds: int, tracer: Optional[Tracer]
) -> Tuple[List[Dict[str, dict]], hostspeed.Calibrated]:
    """Time rounds until ``seconds`` is spent; return per-round records
    and the clock that timed them."""
    rounds: List[Dict[str, dict]] = []
    clock = hostspeed.Calibrated()
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        record: Dict[str, dict] = {}
        for label in runner.labels:
            run_id = f"{runner.name}/{label}/{len(rounds)}"
            elapsed, state, rig = runner.serve(label, clock, None, run_id)
            record[label] = {"seconds": elapsed, "digest": state}
            if tracer is not None:
                traced, traced_state, rig = runner.serve(label, clock, tracer, run_id)
                runner.checks.check(
                    traced_state == state, f"{run_id}: tracing changed the result"
                )
                record[label].update(traced_seconds=traced, rig=rig)
        rounds.append(record)
        now = time.perf_counter()
        if len(rounds) >= min_rounds and now + (now - started) > deadline:
            return rounds, clock


def check_digests(runner: Runner, rounds: List[Dict[str, dict]], smoke: bool) -> Dict[str, str]:
    """Every round must agree; the default seed must match expected.json."""
    digests = {}
    for label in runner.labels:
        states = {record[label]["digest"] for record in rounds}
        runner.checks.check(len(states) == 1, f"{runner.name}/{label}: rounds disagree")
        digests[label] = rounds[0][label]["digest"]
    expected = json.loads((common.SUITE / "expected.json").read_text())
    if runner.seed == expected["seed"]:
        table = expected["smoke" if smoke else "full"].get(runner.name, {})
        for label, state in digests.items():
            runner.checks.check(
                table.get(label) == state,
                f"{runner.name}/{label}: digest {state} != expected {table.get(label)}",
            )
    return digests


def median(rounds: List[Dict[str, dict]], label: str, key: str = "seconds") -> float:
    return statistics.median(record[label][key] for record in rounds)


def e2e_metrics(runner: Runner, rounds: List[Dict[str, dict]]) -> Dict[str, float]:
    metrics = {
        "peak_rss_mb": common.peak_rss_mb(),
        # One round's budgets, each at its median round's time.
        "cpu_s": sum(median(rounds, label) for label in runner.labels),
    }
    for label in E2E_SCHEMES:
        metrics[f"wps.{label}"] = runner.budget(label) / median(rounds, label)
    return metrics


#: Share metric -> the span whose self time it reports.
SHARES = {
    "engine.self_frac": "engine.drive",
    "engine.emit_snapshot_frac": "engine.emit_snapshot",
    "attacks.next_writes_frac": "attacks.next_writes",
    "traces.next_chunk_frac": "traces.next_chunk",
    "drivers.next_batch_self_frac": "drivers.next_batch",
    "drivers.observe_batch_frac": "drivers.observe_batch",
    "scheme.write_batch_self_frac": "scheme.write_batch",
    "scheme.scalar_frac": "scheme.write",
    "pcm.apply_frac": "pcm.apply",
}


def layer_metrics(
    runner: Runner, rounds: List[Dict[str, dict]], tracer: Tracer
) -> Dict[str, float]:
    spent: Dict[str, Dict[str, float]] = {label: {} for label in runner.labels}
    calls: Dict[str, Dict[str, int]] = {label: {} for label in runner.labels}
    for (run_id, name), seconds in tracer.self_seconds.items():
        label = run_id.split("/")[1]
        spent[label][name] = spent[label].get(name, 0.0) + seconds
        calls[label][name] = calls[label].get(name, 0) + tracer.calls[(run_id, name)]
    n = len(rounds)
    # Schemes a workload does not run read 0.
    metrics = dict.fromkeys(engine_layer_names(), 0.0)
    steps = demand = snapshots = chunks = requests = 0
    for label in runner.labels:
        total = sum(spent[label].values())  # the traced drive() walls
        for metric, span in SHARES.items():
            metrics[f"{metric}.{label}"] = spent[label].get(span, 0.0) / total
        metrics[f"scheme.scalar_writes.{label}"] = calls[label].get("scheme.write", 0) / n
        metrics[f"pcm.apply_calls.{label}"] = calls[label].get("pcm.apply", 0) / n
        engine = rounds[-1][label]["rig"].engine
        budget = runner.budget(label)
        device = engine.scheme.array.total_writes
        metrics[f"sim.device_writes_per_demand.{label}"] = device / budget
        metrics[f"sim.swap_events.{label}"] = float(engine.scheme.swap_events)
        steps += engine.batches
        demand += budget
        snapshots += engine.snapshots_written
        chunks += calls[label].get("traces.next_chunk", 0) / n
        requests += getattr(engine.driver, "requests_consumed", 0)
    metrics["engine.steps"] = float(steps)
    metrics["engine.batch_fill"] = demand / (steps * BATCH_SIZE)
    metrics["engine.snapshots"] = float(snapshots)
    metrics["traces.chunks"] = float(chunks)
    metrics["traces.requests_per_write"] = requests / demand
    traced = sum(median(rounds, label, "traced_seconds") for label in runner.labels)
    untraced = sum(median(rounds, label) for label in runner.labels)
    metrics[OVERHEAD] = traced / untraced - 1.0
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    with common.work_dir(f"{args.workload}-") as work:
        runner = Runner(args, str(work))
        # Set-up ends once every engine of the workload is built; these
        # objects then serve the warm-up.
        warmups = {label: runner.rig(label) for label in runner.labels}
        setup_s = common.cpu_s()
        print(common.READY, setup_s / hostspeed.slowdown(5), flush=True)
        if args.setup_only:
            return 0
        for label, rig in warmups.items():
            rig.engine.drive(runner.budget(label) // 10)
        del warmups
        runner.oracle()
        tracer = Tracer() if args.trace else None
        min_rounds = 1 if args.smoke else MIN_ROUNDS
        rounds, clock = run_rounds(runner, args.seconds, min_rounds, tracer)
        digests = check_digests(runner, rounds, args.smoke)
        details: Dict[str, float] = {
            "rounds": len(rounds),
            "slowdown.median": statistics.median(clock.slowdowns),
            "slowdown.max": max(clock.slowdowns),
        }
        if tracer is None:
            metrics = e2e_metrics(runner, rounds)
        else:
            metrics = layer_metrics(runner, rounds, tracer)
            details["spans"] = len(tracer)
            if args.spans:
                tracer.write_ndjson(args.spans)
    common.emit(runner.checks, metrics, digests, details)
    return 0


if __name__ == "__main__":
    sys.exit(main())
