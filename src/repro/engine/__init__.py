"""The composable simulation engine and its observer interface.

* :mod:`repro.engine.core` — :class:`SimulationEngine`, the one step
  loop every simulation path (exact lifetime, overhead measurement)
  is configured from: drivers produce addresses, the
  engine serves them;
* :mod:`repro.engine.observers` — per-batch observer hooks and the
  built-in observers (overhead collection, wear timelines);
* :mod:`repro.engine.invariants` — :class:`InvariantCheckObserver`,
  runtime verification of wear-leveler state invariants (RT
  bijectivity, write-count conservation, ET immutability, SWPT
  validity) raising :class:`repro.errors.InvariantViolation`;
* :mod:`repro.engine.snapshot` — the versioned, CRC-guarded mid-run
  snapshot container and :class:`SnapshotPlan` (sub-cell recovery,
  ``docs/robustness.md``);
* :mod:`repro.engine.interrupt` — the fault harness's kill-at-demand
  arming point, honored by the engine step loop.
"""

from .core import PER_WRITE_STEP, EngineOutcome, SimulationEngine
from .invariants import InvariantCheckObserver
from .observers import (
    BatchSnapshot,
    EngineObserver,
    SchemeOverheads,
    SchemeOverheadsObserver,
    WearTimelineObserver,
)
from .snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    SNAPSHOT_MAGIC,
    SnapshotPlan,
    discard_snapshot,
    read_snapshot,
    write_snapshot,
)

__all__ = [
    "PER_WRITE_STEP",
    "EngineOutcome",
    "SimulationEngine",
    "InvariantCheckObserver",
    "BatchSnapshot",
    "EngineObserver",
    "SchemeOverheads",
    "SchemeOverheadsObserver",
    "WearTimelineObserver",
    "SNAPSHOT_FORMAT_VERSION",
    "SNAPSHOT_MAGIC",
    "SnapshotPlan",
    "discard_snapshot",
    "read_snapshot",
    "write_snapshot",
]
