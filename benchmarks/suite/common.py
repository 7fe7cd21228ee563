"""Helpers shared by the benchmark's orchestrator and workload processes."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List

#: Checkout root (this file lives in ``benchmarks/suite/``).
ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
SUITE = Path(__file__).resolve().parent
#: Scratch space for caches, snapshots, server state and sockets.  It
#: lives inside the checkout and is removed when the run ends.
WORK_ROOT = ROOT / ".bench_work"

#: Printed by a workload process once its set-up is complete, followed
#: by the CPU seconds the process has used so far, at nominal host speed.
READY = "READY"

#: ``--smoke`` runs (the self-tests) divide every budget by this.
SMOKE_DIVISOR = 50


def child_env() -> Dict[str, str]:
    """Environment for every process the benchmark starts.

    String hashing is seeded the same in every process: with a random
    seed per process, the interpreter-bound workloads ran up to 8% faster
    or slower from one process to the next.
    """
    path = os.environ.get("PYTHONPATH", "")
    return dict(
        os.environ,
        PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC),
        PYTHONHASHSEED="0",
    )


def require_package() -> None:
    """Exit non-zero, printing no result, when ``src/repro`` is missing."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"benchmark: no package at {SRC / 'repro'}; run from a full checkout")


def import_package() -> None:
    """Make ``src/`` importable (exits when it is missing)."""
    require_package()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@contextmanager
def work_dir(prefix: str) -> Iterator[Path]:
    """A fresh directory under :data:`WORK_ROOT`, removed afterwards."""
    WORK_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=WORK_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


def engine_digest(engine: Any, served: int) -> str:
    """Digest of the simulated state a speed-only change must not move:
    per-page wear, device writes, swap counters and demand served."""
    scheme = engine.scheme
    array = scheme.array
    state = hashlib.blake2b(array.writes.tobytes(), digest_size=16)
    totals = [served, array.total_writes, scheme.swap_events, scheme.swap_writes]
    state.update(json.dumps(totals).encode())
    return state.hexdigest()


def cpu_s(include_children: bool = False) -> float:
    """CPU seconds used by this process (and, optionally, by the children
    it has waited for).

    Every time the benchmark reports is CPU time, not wall time, scaled
    to nominal host speed (see ``hostspeed``).  On a shared host a
    process that waits for a core -- behind another process, or while
    the hypervisor runs another tenant (the guest accounts that as steal
    time) -- accrues wall time but no CPU time, so CPU time repeats from
    run to run where wall time does not.
    """
    seconds = time.process_time()
    if include_children:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        seconds += usage.ru_utime + usage.ru_stime
    return seconds


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident set size in MiB (``ru_maxrss`` is KiB on Linux)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


class Checks:
    """Counts operations attempted and failed, keeping failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
            print(f"benchmark: FAILED {message}", file=sys.stderr, flush=True)
        return ok


def emit(
    checks: Checks,
    metrics: Dict[str, Any],
    digests: Dict[str, str],
    details: Dict[str, Any],
) -> None:
    """Print a workload process's result as its last stdout line."""
    record = {
        "attempted": max(1, checks.attempted),
        "correct": not checks.failures,
        "details": details,
        "digests": digests,
        "failed": len(checks.failures),
        "failures": checks.failures,
        "metrics": metrics,
    }
    print(json.dumps(record, sort_keys=True), flush=True)
