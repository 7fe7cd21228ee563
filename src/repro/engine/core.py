"""The composable simulation engine.

:class:`SimulationEngine` owns the step loop every simulation path in
the package runs through: pull demand writes from a workload driver,
push them through a wear-leveling scheme, watch the PCM array for its
first failure, and notify observers after every step.  The lifetime
and overhead modules in :mod:`repro.sim` are thin configurations of
this one loop — none of them implements stepping or
failure detection of its own.

Drivers only produce addresses, so every step is the same three calls:
``addresses = driver.next_batch(n)``, ``counts = serve(addresses,
driver.stop_at)``, ``driver.observe_batch(counts)``.  ``stop_at`` is
``None`` except for an adaptive attack, whose driver hands over one
segment of writes at a time and names the physical-write count its
detector would react to; ``serve`` ends the batch after the first
request that costs that much.  ``batch_size`` only picks ``serve``,
once per run:

* ``batch_size == 1`` (the engine's default; experiment cells default
  to ``repro.exec.DEFAULT_BATCH_SIZE``) serves through the inherited
  per-write loop, ``WearLeveler.write_batch(scheme, addresses,
  stop_at)``, which calls ``scheme.write`` once per address and stops
  at the failing write (or the ``stop_at`` one).  This is the oracle
  every faster path is checked against; steps are bounded by
  :data:`PER_WRITE_STEP`;
* ``batch_size > 1`` serves through the scheme's own
  :meth:`WearLeveler.write_batch`.  Batched runs are **bit-identical**
  to per-write runs — same failure page, same write counts, same swap
  counters — a contract every scheme's ``write_batch`` must uphold and
  ``tests/test_engine_identity.py`` enforces.

Observers (:mod:`repro.engine.observers`) receive a
:class:`~repro.engine.observers.BatchSnapshot` after every engine step:
cumulative demand/device writes, the scheme's swap counters, simulated
time, and lazy access to the wear state.  They are the single
attachment point for metrics, timelines and detection logic.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Iterable, Optional, Tuple

from ..config import TimingConfig
from ..devtools import sanitize
from ..errors import DeterminismViolation, SimulationError, SnapshotError
from ..pcm.faults import FirstFailure
from ..wearlevel.base import WearLeveler
from . import interrupt
from .observers import BatchSnapshot, EngineObserver
from .snapshot import SnapshotPlan, write_snapshot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..pcm.softerrors import SoftErrorInjector
    from ..sim.drivers import WorkloadDriver

#: Demand writes per engine step on the per-write path (``batch_size ==
#: 1``).  Bounded so a driver never generates many addresses past the
#: failing write and peak memory stays flat; observers fire once per
#: step.
PER_WRITE_STEP = 4096


@dataclass(frozen=True)
class EngineOutcome:
    """State of an engine run when control returns to the caller."""

    #: Demand writes served by this engine (all ``drive`` calls).
    demand_writes: int
    #: Device writes on the array at the end of the run (unclipped).
    device_writes: int
    #: Whether the array recorded its first failure.
    failed: bool
    #: The first wear-out event, if any.
    failure: Optional[FirstFailure]
    #: Engine steps taken (observer callbacks fired per step).
    batches: int
    #: Simulated time at the response-latency model, in cycles.
    simulated_cycles: float


class SimulationEngine:
    """Composable step loop: driver -> scheme -> array, with observers.

    Parameters
    ----------
    scheme:
        The wear-leveling scheme under test (owns the PCM array).
    driver:
        The workload driver producing demand writes.
    batch_size:
        Demand writes per engine step.  1 serves each step through the
        per-write oracle loop (:data:`PER_WRITE_STEP` writes per step);
        larger values serve through the scheme's ``write_batch``.
    observers:
        :class:`EngineObserver` instances notified per batch and at run
        boundaries.  A non-``critical`` observer that raises is detached
        with a warning instead of aborting the run (degraded metrics
        beat a killed campaign); observers with ``critical = True`` —
        the invariant checker — propagate.
    timing:
        Latency parameters for the simulated-time accumulator (one page
        write costs ``timing.write_cycles``).
    soft_errors:
        Optional :class:`repro.pcm.softerrors.SoftErrorInjector`.  When
        active, every step's quota is clamped so the step ends exactly
        on the next scheduled flip instant (an absolute demand-write
        index), and due flips are delivered after the step before
        observers see the snapshot — which keeps batched runs
        bit-identical to serial runs under nonzero fault rates.
    snapshots:
        Optional :class:`repro.engine.snapshot.SnapshotPlan`.  With a
        demand cadence (``every``), steps are clamped so snapshots land
        on exact absolute demand indices.  Emission is inert: it never
        changes what a run computes, only when its state hits disk.
    """

    def __init__(
        self,
        scheme: "WearLeveler",
        driver: "WorkloadDriver",
        batch_size: int = 1,
        observers: Iterable[EngineObserver] = (),
        timing: TimingConfig = TimingConfig(),
        soft_errors: Optional["SoftErrorInjector"] = None,
        snapshots: Optional[SnapshotPlan] = None,
    ) -> None:
        if batch_size < 1:
            raise SimulationError(f"batch size must be positive, got {batch_size}")
        self.scheme = scheme
        self.driver = driver
        self.batch_size = batch_size
        self.timing = timing
        self._observers: Tuple[EngineObserver, ...] = tuple(observers)
        self._soft_errors = (
            soft_errors
            if soft_errors is not None and soft_errors.active
            else None
        )
        #: Cumulative demand writes served by this engine instance.
        self.demand_served = 0
        #: Engine steps taken so far.
        self.batches = 0
        #: Simulated time spent serving those writes, in cycles.
        self.simulated_cycles = 0.0
        self._snapshots = snapshots
        #: Snapshot files emitted by this engine instance.
        self.snapshots_written = 0

    # ------------------------------------------------------------------
    # Observer management
    # ------------------------------------------------------------------

    def _notify(self, hook: str, *args: object) -> None:
        """Dispatch one observer callback with detach-on-failure.

        Observers are instrumentation: a metric bug must degrade the
        metric, not kill a multi-hour campaign.  A non-``critical``
        observer that raises is dropped from this engine with a
        one-line warning; later observers still fire.  Observers that
        *enforce* correctness (``critical = True``) propagate — the
        invariant checker failing IS the result.
        """
        for observer in self._observers:
            try:
                getattr(observer, hook)(*args)
            except Exception as error:
                if getattr(observer, "critical", False):
                    raise
                if isinstance(error, DeterminismViolation):
                    # A sanitizer finding is never an observer bug to
                    # shrug off — the run's purity is already broken.
                    raise
                self._observers = tuple(  # twl: allow(TWL008) reason=observers are per-process instrumentation; the harness re-attaches them on resume
                    existing
                    for existing in self._observers
                    if existing is not observer
                )
                warnings.warn(
                    f"engine observer {type(observer).__name__} raised "
                    f"{type(error).__name__} in {hook} and was detached: "
                    f"{error}",
                    RuntimeWarning,
                    stacklevel=3,
                )

    # ------------------------------------------------------------------
    # The step loop
    # ------------------------------------------------------------------
    def drive(self, max_demand: int) -> int:
        """Serve up to ``max_demand`` demand writes; stop at failure.

        This is the one step loop of the package.  Returns the number of
        demand writes actually served (less than ``max_demand`` when the
        array fails or the driver stalls).
        """
        if max_demand < 0:
            raise ValueError("max_demand must be non-negative")
        # Engine stepping is a sanitizer-protected region: when armed
        # (REPRO_SANITIZE=1), any global-RNG call from a driver, scheme
        # or observer raises DeterminismViolation.
        sanitize.enter_protected("SimulationEngine stepping")
        try:
            return self._drive_loop(max_demand)
        finally:
            sanitize.exit_protected()

    def _drive_loop(self, max_demand: int) -> int:
        scheme = self.scheme
        driver = self.driver
        array = scheme.array
        injector = self._soft_errors
        if self.batch_size > 1:
            serve = scheme.write_batch
            step = self.batch_size
        else:
            serve = partial(WearLeveler.write_batch, scheme)
            step = PER_WRITE_STEP
        write_cycles = float(self.timing.write_cycles)
        served_total = 0
        cadence = self._snapshots.every if self._snapshots is not None else None
        kill_at = interrupt.armed_kill_at()
        while served_total < max_demand and not array.failed:
            quota = max_demand - served_total
            if injector is not None:
                # Clamp the step so it ends exactly on the next scheduled
                # flip instant (an absolute demand-write index) — the
                # delivery point is then the same for every batch size,
                # extending the batch-identity contract to faulted runs.
                quota = min(quota, injector.demand_until_next(self.demand_served))
            if cadence is not None:
                # Same clamp for the snapshot cadence: snapshots land on
                # exact absolute demand indices (multiples of ``every``),
                # so a resumed run re-enters the identical step sequence.
                boundary = (self.demand_served // cadence + 1) * cadence
                quota = min(quota, boundary - self.demand_served)
            if kill_at is not None and kill_at > self.demand_served:
                # Fault-harness kill point: die exactly at the armed
                # demand index, never mid-batch.
                quota = min(quota, kill_at - self.demand_served)
            device_before = array.total_writes
            addresses = driver.next_batch(min(step, quota))
            if len(addresses) == 0:
                break
            counts = serve(addresses, driver.stop_at)
            driver.observe_batch(counts)
            served = len(counts)
            if served == 0:
                break
            served_total += served
            self.demand_served += served
            self.batches += 1
            self.simulated_cycles += write_cycles * (
                array.total_writes - device_before
            )
            if injector is not None:
                # Deliver before observers so the invariant checker sees
                # the corrupted (or repaired) state at the exact step the
                # flip landed.
                injector.deliver(self.demand_served)
            if self._observers:
                snapshot = BatchSnapshot(
                    index=self.batches - 1,
                    served=served,
                    demand_writes=self.demand_served,
                    device_writes=array.total_writes,
                    swap_writes=scheme.swap_writes,
                    swap_events=scheme.swap_events,
                    simulated_cycles=self.simulated_cycles,
                    failed=array.failed,
                    scheme=scheme,
                )
                self._notify("on_batch", snapshot)
            if cadence is not None and self.demand_served % cadence == 0:
                self.emit_snapshot()
            if kill_at is not None and self.demand_served >= kill_at:
                # The snapshot (if due at this boundary) is already on
                # disk: a crash-consistent process death.
                interrupt.deliver_kill()
        return served_total

    # ------------------------------------------------------------------
    # Mid-run persistence
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Complete engine state as a plain state tree.

        Everything a resume needs: the engine counters, the array's wear
        state, the scheme's tables/RNG registers, the driver's stream
        position, and (when soft errors are active) the injector's
        schedule position.  Restoring this tree into a freshly
        constructed engine of the same configuration reproduces the
        run's future bit-exactly.
        """
        state: dict = {
            "array": self.scheme.array.snapshot(),
            "batches": self.batches,
            "demand_served": self.demand_served,
            "driver": self.driver.snapshot(),
            "scheme": self.scheme.snapshot(),
            "simulated_cycles": self.simulated_cycles,
        }
        if self._soft_errors is not None:
            state["soft_errors"] = self._soft_errors.snapshot()
        return state

    def restore_state(self, state: dict) -> None:
        """Restore a state captured by :meth:`snapshot_state`.

        Must run on a freshly constructed engine: the injector's
        reload-style repair hooks capture architectural register values
        at construction, so the scheme is restored only *after* every
        construction-time capture has happened.
        """
        has_injector = self._soft_errors is not None
        if has_injector != ("soft_errors" in state):
            raise SnapshotError(
                "snapshot/engine soft-error configuration mismatch: "
                f"snapshot {'has' if 'soft_errors' in state else 'lacks'} "
                "injector state"
            )
        self.scheme.array.restore(state["array"])  # type: ignore[arg-type]
        self.scheme.restore(state["scheme"])  # type: ignore[arg-type]
        self.driver.restore(state["driver"])  # type: ignore[arg-type]
        if self._soft_errors is not None:
            self._soft_errors.restore(state["soft_errors"])  # type: ignore[arg-type]
        self.batches = int(state["batches"])  # type: ignore[arg-type]
        self.demand_served = int(state["demand_served"])  # type: ignore[arg-type]
        self.simulated_cycles = float(state["simulated_cycles"])  # type: ignore[arg-type]

    def emit_snapshot(self) -> str:
        """Atomically write the current state to the plan's path."""
        plan = self._snapshots
        if plan is None:
            raise SimulationError("engine has no snapshot plan")
        write_snapshot(plan.path, self.snapshot_state())
        self.snapshots_written += 1  # twl: allow(TWL008) reason=per-process emission counter, not resumable simulation state
        return plan.path

    # ------------------------------------------------------------------
    # Run orchestration
    # ------------------------------------------------------------------
    def begin_run(self) -> None:
        """Notify observers that a run is starting."""
        self._notify("on_run_start", self)

    def end_run(self) -> EngineOutcome:
        """Build the outcome and notify observers the run is over."""
        outcome = self.outcome()
        self._notify("on_run_end", self, outcome)
        return outcome

    def outcome(self) -> EngineOutcome:
        """Snapshot of the run state, without ending the run."""
        array = self.scheme.array
        return EngineOutcome(
            demand_writes=self.demand_served,
            device_writes=array.total_writes,
            failed=array.failed,
            failure=array.first_failure,
            batches=self.batches,
            simulated_cycles=self.simulated_cycles,
        )

    def run(self, max_demand: int, require_failure: bool = False) -> EngineOutcome:
        """One complete run: serve up to ``max_demand`` demand writes.

        Raises :class:`SimulationError` if the array has already failed,
        or — with ``require_failure`` — if the quota is exhausted without
        a failure (a sign the scale was chosen too large for exact
        simulation).
        """
        if self.scheme.array.failed and self.demand_served == 0:
            raise SimulationError("array already failed before simulation start")
        self.begin_run()
        self.drive(max_demand)
        if require_failure and not self.scheme.array.failed:
            raise SimulationError(
                f"no failure within {max_demand} demand writes; "
                "reduce the array scale"
            )
        return self.end_run()

    def __repr__(self) -> str:
        return (
            f"SimulationEngine(scheme={self.scheme.name!r}, "
            f"workload={self.driver.workload_name!r}, "
            f"batch_size={self.batch_size}, demand_served={self.demand_served})"
        )
