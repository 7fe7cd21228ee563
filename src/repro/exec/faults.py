"""Deterministic fault injection for the campaign executor.

``tests/test_resilience.py`` has to prove that retries, pool rebuilds,
timeouts and resume actually work — which requires making
workers fail *on demand, deterministically, across the process spawn
boundary*.  This module is that harness.  It is test infrastructure
that ships in the package (like :mod:`repro.exec.hashing`) because the
hooks must be importable inside pool workers and callable from the CLI
smoke job in CI.

Activation is by environment variable so a plan survives
``ProcessPoolExecutor`` worker creation under both ``fork`` and
``spawn``::

    REPRO_FAULTS='{"mode": "transient", "rate": 1.0, "times": 1,
                   "state_dir": "/tmp/faults"}' \\
        twl-repro fig6 --quick --jobs 2 --retries 2

Injection is deterministic twice over:

* **Which cells are hit** is a pure function of the plan ``seed`` and
  the cell's cache fingerprint (a BLAKE2b stream via
  :mod:`repro.rng.streams`), so the same plan always selects the same
  cells regardless of worker scheduling.
* **How often** is bounded by per-cell (``times``) and global
  (``max_total``) budgets claimed through ``O_CREAT | O_EXCL`` marker
  files under ``state_dir`` — atomic across processes, and persistent
  across the worker deaths the faults themselves cause (a SIGKILL'd
  worker forgets everything *except* its marker file, which is exactly
  what lets "fail once, succeed on retry" work).

Modes:

``transient``
    Raise :class:`FaultInjectionError` (a ``SimulationError``, so the
    executor wraps it into a ``CellExecutionError`` naming the cell).
``hang``
    Sleep ``hang_seconds`` — long enough to trip a per-cell timeout.
``kill``
    ``SIGKILL`` the current worker process, breaking the pool.
``corrupt``
    Parent-side: garble the cache entry's bytes right after
    :meth:`repro.exec.cache.CellCache.put` writes them, exercising the
    corrupt-entry quarantine path.
"""

from __future__ import annotations

import errno
import json
import os
import signal
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..errors import ConfigError, SimulationError
from ..rng.streams import derive_seed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .cells import ExperimentCell

#: Environment variable carrying the JSON fault plan.
FAULTS_ENV = "REPRO_FAULTS"

#: Fault modes.
MODE_TRANSIENT = "transient"
MODE_HANG = "hang"
MODE_KILL = "kill"
MODE_CORRUPT = "corrupt"
_MODES = (MODE_TRANSIENT, MODE_HANG, MODE_KILL, MODE_CORRUPT)


class FaultInjectionError(SimulationError):
    """Transient failure raised by the ``transient`` fault mode."""


@dataclass(frozen=True)
class FaultPlan:
    """One deterministic fault-injection campaign."""

    mode: str
    #: Fraction of cells selected for injection (by fingerprint hash).
    rate: float = 1.0
    #: Seed of the cell-selection stream.
    seed: int = 0
    #: Injections per selected cell before it is left alone.
    times: int = 1
    #: Global injection budget across all cells (None = unbounded).
    max_total: Optional[int] = None
    #: Sleep length of the ``hang`` mode.
    hang_seconds: float = 30.0
    #: Directory holding the cross-process attempt markers.  Without
    #: it, budgets are tracked per-process only — fine for serial
    #: ``transient`` plans, wrong for ``kill`` (the marker must outlive
    #: the worker).
    state_dir: Optional[str] = None
    #: ``kill`` mode refinement: instead of dying at worker entry, arm
    #: :mod:`repro.engine.interrupt` so the engine SIGKILLs the process
    #: exactly when the run reaches this absolute demand-write index —
    #: mid-run, after any snapshots due by then are on disk.  The
    #: crash-consistency proof point (``tests/test_resilience.py``).
    kill_at_demand: Optional[int] = None

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ConfigError(f"unknown fault mode {self.mode!r}; expected {_MODES}")
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigError(f"fault rate must be in [0, 1], got {self.rate}")
        if self.times < 1:
            raise ConfigError(f"fault times must be >= 1, got {self.times}")
        if self.max_total is not None and self.max_total < 1:
            raise ConfigError(f"fault max_total must be >= 1, got {self.max_total}")
        if self.kill_at_demand is not None:
            if self.mode != MODE_KILL:
                raise ConfigError(
                    f"kill_at_demand only applies to {MODE_KILL!r} plans"
                )
            if self.kill_at_demand < 1:
                raise ConfigError(
                    f"kill_at_demand must be >= 1, got {self.kill_at_demand}"
                )

    def selects(self, fingerprint: str) -> bool:
        """Whether this plan targets the cell with ``fingerprint``."""
        if self.rate >= 1.0:
            return True
        if self.rate <= 0.0:
            return False
        unit = derive_seed(self.seed, "fault-select", fingerprint) / float(2**63)
        return unit < self.rate

    def to_env(self) -> str:  # twl: allow(TWL011) reason=oracle: the fault tests arm workers with it, round-tripping the plan the executor parses from REPRO_FAULTS
        """JSON form suitable for ``os.environ[FAULTS_ENV]``."""
        record = {"mode": self.mode, "rate": self.rate, "seed": self.seed,
                  "times": self.times, "hang_seconds": self.hang_seconds}
        if self.max_total is not None:
            record["max_total"] = self.max_total
        if self.state_dir is not None:
            record["state_dir"] = self.state_dir
        if self.kill_at_demand is not None:
            record["kill_at_demand"] = self.kill_at_demand
        return json.dumps(record)


#: Per-process fallback attempt counters (used when ``state_dir`` is
#: unset); maps marker name -> count.
_local_claims: dict = {}


def active_plan() -> Optional[FaultPlan]:
    """The plan in ``$REPRO_FAULTS``, or None when injection is off."""
    raw = os.environ.get(FAULTS_ENV, "").strip()
    if not raw:
        return None
    try:
        record = json.loads(raw)
        return FaultPlan(**record)
    except (ValueError, TypeError) as error:
        raise ConfigError(f"bad {FAULTS_ENV} plan {raw!r}: {error}") from error


def _claim(plan: FaultPlan, scope: str, budget: Optional[int]) -> bool:
    """Atomically claim one injection from ``budget`` (True = granted).

    Claims are marker files ``<scope>.<k>`` created with
    ``O_CREAT | O_EXCL`` so two workers can never take the same slot;
    without a ``state_dir`` a per-process dict stands in.
    """
    if budget is None:
        return True
    if plan.state_dir is None:
        count = _local_claims.get(scope, 0)
        if count >= budget:
            return False
        _local_claims[scope] = count + 1
        return True
    os.makedirs(plan.state_dir, exist_ok=True)
    for slot in range(budget):
        path = os.path.join(plan.state_dir, f"{scope}.{slot}")
        try:
            handle = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except OSError as error:
            if error.errno == errno.EEXIST:
                continue
            raise
        os.close(handle)
        return True
    return False


def _claim_injection(plan: FaultPlan, fingerprint: str) -> bool:
    """True when both the per-cell and global budgets grant a slot."""
    if not _claim(plan, f"cell-{fingerprint}", plan.times):
        return False
    if not _claim(plan, "global", plan.max_total):
        return False
    return True


def maybe_inject(cell: "ExperimentCell") -> None:
    """Worker-side hook: fire the active plan's fault for ``cell``.

    Called at the top of the executor's worker entry point.  A no-op
    unless ``$REPRO_FAULTS`` is set, the plan selects this cell, and
    the injection budgets still have room.
    """
    plan = active_plan()
    if plan is None or plan.mode == MODE_CORRUPT:
        return
    from .hashing import cell_fingerprint

    fingerprint = cell_fingerprint(cell)
    if not plan.selects(fingerprint) or not _claim_injection(plan, fingerprint):
        return
    if plan.mode == MODE_TRANSIENT:
        raise FaultInjectionError(
            f"injected transient fault for {cell.describe()}"
        )
    if plan.mode == MODE_HANG:
        # Sleep in slices: a single long time.sleep is one C call, and
        # the portable cell deadline (repro.exec.deadline) delivers its
        # expiry at a bytecode boundary — slicing keeps a hung cell
        # interruptible within ~one slice of the budget expiring.
        deadline = time.monotonic() + plan.hang_seconds
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            time.sleep(min(remaining, 0.05))
    # MODE_KILL — die the way an OOM-killed worker dies: no cleanup,
    # no exception, just gone.  The parent sees BrokenProcessPoolError.
    # With kill_at_demand, death is deferred into the engine step loop
    # so it lands exactly at the armed demand index (after due
    # snapshots hit disk — the crash-consistency scenario).
    if plan.kill_at_demand is not None:
        from ..engine import interrupt

        interrupt.arm_kill_at(plan.kill_at_demand)
        return
    os.kill(os.getpid(), signal.SIGKILL)


def maybe_corrupt(fingerprint: str, path: str) -> None:
    """Parent-side hook: garble a just-written cache entry.

    Called by :meth:`repro.exec.cache.CellCache.put` after the atomic
    rename.  Active only for ``corrupt`` plans that select the cell and
    still have budget; overwrites the file with bytes that fail JSON
    decoding so the next ``get`` exercises the quarantine path.
    """
    plan = active_plan()
    if plan is None or plan.mode != MODE_CORRUPT:
        return
    if not plan.selects(fingerprint) or not _claim_injection(plan, fingerprint):
        return
    with open(path, "wb") as handle:
        handle.write(b"\x00corrupted-by-fault-injection\x00")
