#!/usr/bin/env python3
"""The repository benchmark: four workloads, end-to-end and per-layer.

    python3 benchmarks/suite/run.py [--workload NAME] [--seed N] [--seconds S]
        [--trace 0|1] [--spans PATH] [--json OUT] [--smoke]

Each workload runs in a fresh process, so its peak RSS and set-up time
are its own.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` is a separate run that wraps every
layer boundary of the objects the workload builds and reports the
per-layer metrics.  Every run also checks the simulated results; any
failed check makes the run exit non-zero.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; without ``--workload`` every
workload runs and the metric names carry a ``<workload>/`` prefix.
See ``benchmarks/suite/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import common
import names

WORKLOADS = ("scan_batched", "inconsistent_adaptive", "ftl_stream", "campaign")
#: Launches whose CPU seconds up to ``READY`` (at nominal host speed)
#: give an engine workload's setup_s.
SETUP_SPAWNS = 5
#: A workload process that runs longer than this is killed and fails.
CHILD_TIMEOUT = 170.0


def load_spec() -> Dict[str, Any]:
    return json.loads((common.ROOT / "BENCHMARK.json").read_text())


class Child:
    """One workload process in its own process group (with the servers
    and pool workers it starts); records the CPU seconds it reported
    with ``READY``."""

    def __init__(self, command: List[str]) -> None:
        self.proc = subprocess.Popen(
            command,
            cwd=common.ROOT,
            env=common.child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        self._watchdog = threading.Timer(CHILD_TIMEOUT, self.kill)
        self._watchdog.start()
        self.ready_s: Optional[float] = None
        self.lines: List[str] = []
        assert self.proc.stdout is not None
        try:
            for line in self.proc.stdout:
                self.lines.append(line.rstrip("\n"))
                word, _, seconds = self.lines[-1].partition(" ")
                if word == common.READY:
                    self.ready_s = float(seconds)
                    break
        except BaseException:
            self.kill()
            self.finish()
            raise

    def kill(self) -> None:
        """SIGKILL the whole group; a no-op once it has exited."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def finish(self) -> Tuple[int, List[str]]:
        """Wait for exit; return (exit code, stdout lines)."""
        try:
            out, _ = self.proc.communicate()
            self.lines += out.splitlines()
            return self.proc.returncode, self.lines
        finally:
            self._watchdog.cancel()
            self.kill()  # anything the process left behind


def child_command(workload: str, args: argparse.Namespace) -> List[str]:
    script = "campaign.py" if workload == "campaign" else "workloads.py"
    command = [
        sys.executable, str(common.SUITE / script),
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if workload != "campaign":
        command += ["--workload", workload]
    if args.smoke:
        command.append("--smoke")
    if args.spans and args.trace:
        spans = Path(args.spans)
        if args.workload is None:
            spans = spans.with_name(f"{spans.stem}.{workload}{spans.suffix}")
        command += ["--spans", str(spans.resolve())]
    return command


def run_workload(workload: str, args: argparse.Namespace, spec: Dict[str, Any]) -> Dict[str, Any]:
    """Run one workload; return its record (result keys plus detail)."""
    command = child_command(workload, args)
    engine = workload != "campaign"
    checks = common.Checks()
    setups: List[float] = []
    if engine and not args.trace:
        for _ in range(SETUP_SPAWNS - 1):
            child = Child(command + ["--setup-only"])
            code, _ = child.finish()
            if checks.check(child.ready_s is not None and code == 0,
                            f"{workload}: set-up launch exited with {code}"):
                setups.append(child.ready_s)
    child = Child(command)
    code, lines = child.finish()
    if child.ready_s is not None:
        setups.append(child.ready_s)
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        record = {"attempted": 0, "failed": 0, "failures": [], "metrics": {},
                  "digests": {}, "details": {}}
    checks.check(code == 0 and bool(record["metrics"]),
                 f"{workload}: process exited with {code}")
    metrics: Dict[str, float] = dict(record["metrics"])
    if engine and not args.trace and setups:
        metrics["setup_s"] = statistics.median(setups)
    if args.trace:
        unused = names.campaign_layer_names() if engine else names.engine_layer_names()
        for name in unused:
            metrics.setdefault(name, 0.0)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    expected = {entry["name"] for entry in declared}
    checks.check(
        set(metrics) == expected,
        f"{workload}: metric set differs from BENCHMARK.json: missing "
        f"{sorted(expected - set(metrics))}, extra {sorted(set(metrics) - expected)}",
    )
    measured = {}
    for entry in declared:
        value = metrics.get(entry["name"])
        if value is not None and checks.check(
            math.isfinite(value), f"{workload}: {entry['name']} is {value}"
        ):
            measured[entry["name"]] = {"value": value, "unit": entry["unit"]}
    failures = record["failures"] + checks.failures
    return {
        "correct": not failures,
        "attempted": record["attempted"] + checks.attempted,
        "failed": len(failures),
        "metrics": measured,
        "digests": record["digests"],
        "details": record["details"],
        "failures": failures,
    }


def render(workload: str, record: Dict[str, Any]) -> str:
    lines = [f"== {workload}: correct={record['correct']} "
             f"attempted={record['attempted']} failed={record['failed']}"]
    for name, metric in record["metrics"].items():
        lines.append(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']}")
    for name, value in sorted(record["details"].items()):
        if isinstance(value, (int, float)):
            lines.append(f"  (detail) {name:<31} {value:>16.6g}")
    for failure in record["failures"]:
        lines.append(f"  FAILED {failure}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    common.require_package()
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds, 0 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced run reporting the per-layer metrics")
    parser.add_argument("--spans", default=None, help="write traced spans here as NDJSON")
    parser.add_argument("--json", default=None, help="write the full report here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny budgets, for the self-tests; digests differ from full runs")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0 if args.smoke else spec["run_seconds"]

    workloads = [args.workload] if args.workload else list(WORKLOADS)
    records = {}
    for workload in workloads:
        records[workload] = run_workload(workload, args, spec)
        print(render(workload, records[workload]), flush=True)
    if args.json:
        report = {
            "schema": "twl-suite-report/1",
            "seed": args.seed,
            "seconds": args.seconds,
            "smoke": args.smoke,
            "trace": args.trace,
            "workloads": records,
        }
        Path(args.json).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    if args.workload:
        metrics = records[args.workload]["metrics"]
    else:
        metrics = {f"{w}/{name}": m for w, r in records.items() for name, m in r["metrics"].items()}
    result = {
        "correct": all(r["correct"] for r in records.values()),
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
