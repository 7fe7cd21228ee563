"""Lifetime results and exact run-to-failure simulation.

The paper's lifetime metric is the execution time until the first page
wears out, at the workload's sustained write bandwidth.  The
scale-invariant form of that metric is the **lifetime fraction**::

    demand_writes_at_failure / (n_pages * endurance_mean)

— demand writes because the workload's offered bandwidth governs wall
time (wear-leveling swap writes burn endurance but are absorbed by
device-internal bandwidth).  A perfect PV-aware leveler approaches 1.0;
Figure 8 plots exactly this quantity.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from ..analysis.calibration import PAPER_IDEAL_CALIBRATION, ideal_lifetime_seconds
from ..config import PCMConfig, PAPER_PCM, SoftErrorConfig
from ..engine import (
    EngineObserver,
    InvariantCheckObserver,
    SimulationEngine,
    SnapshotPlan,
    read_snapshot,
)
from ..errors import SnapshotError
from ..pcm.faults import FirstFailure
from ..pcm.softerrors import SoftErrorInjector
from ..units import SECONDS_PER_YEAR, mbps_to_bytes_per_second
from ..wearlevel.base import WearLeveler
from .drivers import WorkloadDriver

#: Default exact-simulation safety cap (writes), far above any scaled run.
DEFAULT_MAX_DEMAND = 2_000_000_000


@dataclass(frozen=True)
class LifetimeResult:
    """Outcome of a lifetime simulation run."""

    scheme: str
    workload: str
    n_pages: int
    endurance_mean: float
    demand_writes: int
    device_writes: int
    failed: bool
    failure: Optional[FirstFailure]
    estimation: str = "exact"
    #: Soft-error outcome counters (injected/corrected/repaired/...)
    #: when the run was faulted; None for clean runs.
    soft_errors: Optional[Dict[str, int]] = None

    @property
    def lifetime_fraction(self) -> float:
        """Demand writes served per unit of ideal endurance capacity."""
        return self.demand_writes / (self.n_pages * self.endurance_mean)

    @property
    def overhead_ratio(self) -> float:
        """Extra device writes per demand write (wear amplification)."""
        if self.demand_writes == 0:
            return 0.0
        return self.device_writes / self.demand_writes - 1.0

    def years(
        self,
        bandwidth_mbps: float,
        pcm: PCMConfig = PAPER_PCM,
        calibration: float = PAPER_IDEAL_CALIBRATION,
    ) -> float:
        """Full-scale lifetime in years at a Table-2 style bandwidth."""
        ideal = ideal_lifetime_seconds(
            mbps_to_bytes_per_second(bandwidth_mbps), pcm=pcm, calibration=calibration
        )
        return self.lifetime_fraction * ideal / SECONDS_PER_YEAR


def run_to_failure(
    scheme: WearLeveler,
    driver: WorkloadDriver,
    max_demand: int = DEFAULT_MAX_DEMAND,
    require_failure: bool = True,
    batch_size: int = 1,
    observers: Iterable[EngineObserver] = (),
    soft_errors: Optional[SoftErrorConfig] = None,
    check_invariants: bool = False,
    snapshots: Optional[SnapshotPlan] = None,
) -> LifetimeResult:
    """Exact simulation: drive demand writes until the first page failure.

    A thin configuration of :class:`repro.engine.SimulationEngine`:
    ``batch_size`` selects the batched write protocol (bit-identical to
    the default per-write path) and ``observers`` attach per-batch
    hooks.  ``soft_errors`` injects controller soft errors through the
    engine step loop (at rate 0, or over a scheme with no fault
    surface, no injector is built and the run is untouched);
    ``check_invariants`` attaches a critical
    :class:`~repro.engine.InvariantCheckObserver` so any resulting
    state corruption raises :class:`~repro.errors.InvariantViolation`
    instead of silently skewing the result.  Raises
    :class:`~repro.errors.SimulationError` if the cap is reached
    without a failure and ``require_failure`` is set — a sign the scale
    was chosen too large for exact simulation.

    ``snapshots`` arms mid-run checkpointing (sub-cell recovery): the
    engine emits crash-consistent snapshots at the plan's cadence, and
    when the plan allows resume and its path holds a snapshot, the run
    restores it and continues from the recorded demand index instead of
    replaying from zero.  A resumed run is bit-identical to the
    uninterrupted run (``tests/test_snapshot_identity.py``).  Restore
    ordering matters: the injector is built against the *fresh* scheme
    (its reload-repair hooks capture pristine register values, exactly
    as in the uninterrupted run) before any state is restored.
    """
    injector = None
    if soft_errors is not None and soft_errors.rate > 0.0:
        injector = SoftErrorInjector(scheme, soft_errors)
        if not injector.active:
            injector = None
    attached = list(observers)
    if check_invariants:
        attached.append(InvariantCheckObserver())
    engine = SimulationEngine(
        scheme,
        driver,
        batch_size=batch_size,
        observers=attached,
        soft_errors=injector,
        snapshots=snapshots,
    )
    demand_before = scheme.demand_writes
    if snapshots is not None and snapshots.resume and os.path.exists(snapshots.path):
        try:
            saved = read_snapshot(snapshots.path)
        except SnapshotError:
            # A torn snapshot (the atomic-rename protocol makes this mean
            # disk corruption, not a crashed writer) falls back to a
            # fresh run instead of permanently wedging the cell.
            saved = None
        if saved is not None:
            engine.restore_state(saved)
    remaining = max(0, max_demand - engine.demand_served)
    engine.run(remaining, require_failure=require_failure)
    failed = scheme.array.failed
    failure = scheme.array.first_failure
    if failed and failure is not None:
        # Clip device writes to the failure instant (the driver may have
        # completed the request that caused the failure).
        device_writes = failure.device_writes
    else:
        device_writes = scheme.array.total_writes
    return LifetimeResult(
        scheme=scheme.name,
        workload=driver.workload_name,
        n_pages=scheme.array.n_pages,
        endurance_mean=float(scheme.array.endurance.mean()),
        demand_writes=scheme.demand_writes - demand_before,
        device_writes=device_writes,
        failed=failed,
        failure=failure,
        estimation="exact",
        soft_errors=injector.summary() if injector is not None else None,
    )
