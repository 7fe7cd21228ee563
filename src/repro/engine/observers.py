"""Engine observers: the per-batch hook interface.

An observer attaches to a :class:`~repro.engine.core.SimulationEngine`
and is called back at three points:

* :meth:`EngineObserver.on_run_start` — once, before the first write;
* :meth:`EngineObserver.on_batch` — after every engine step, with a
  :class:`BatchSnapshot` carrying cumulative counters, the scheme's swap
  accounting, simulated time, and lazy access to the wear state;
* :meth:`EngineObserver.on_run_end` — once, with the final
  :class:`~repro.engine.core.EngineOutcome`.

Observers replace the ad-hoc metric plumbing that used to live in each
simulation module: overhead measurement is
:class:`SchemeOverheadsObserver`, wear-over-time capture is
:class:`WearTimelineObserver`, and future metrics (attack-detection
observability, wear histograms) attach the same way without touching
the step loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..wearlevel.base import WearLeveler
    from .core import EngineOutcome, SimulationEngine


@dataclass(frozen=True)
class BatchSnapshot:
    """Engine state handed to observers after one step.

    Counter fields are cheap copies taken at snapshot time; the wear
    state is exposed through methods that read the live array, so an
    observer that does not look at wear pays nothing for it.
    """

    #: Zero-based engine step index.
    index: int
    #: Demand writes served in this step.
    served: int
    #: Cumulative demand writes served by the engine.
    demand_writes: int
    #: Device writes on the array so far.
    device_writes: int
    #: The scheme's cumulative migration writes.
    swap_writes: int
    #: The scheme's cumulative swap events.
    swap_events: int
    #: Simulated time so far, in cycles.
    simulated_cycles: float
    #: Whether the array has recorded its first failure.
    failed: bool
    #: The live scheme (for wear access; do not mutate).
    scheme: "WearLeveler" = field(repr=False)

    def wear_fraction(self) -> np.ndarray:
        """Per-page wear as a fraction of endurance (a copy)."""
        return self.scheme.array.wear_fraction()


class EngineObserver:
    """Base class for engine observers; all hooks default to no-ops.

    Observers are instrumentation, so the engine treats a raising
    observer as a broken metric, not a broken run: the observer is
    detached with a :class:`RuntimeWarning` and the run continues.
    Observers whose exceptions *are* the result — the invariant checker
    — set ``critical = True`` to propagate instead.
    """

    #: When True, exceptions from this observer abort the run instead of
    #: detaching the observer.
    critical = False

    def on_run_start(self, engine: "SimulationEngine") -> None:
        """Called once before the run's first demand write."""

    def on_batch(self, snapshot: BatchSnapshot) -> None:
        """Called after every engine step."""

    def on_run_end(self, engine: "SimulationEngine", outcome: "EngineOutcome") -> None:
        """Called once when the run is over."""


@dataclass(frozen=True)
class SchemeOverheads:
    """Measured per-demand-write overhead ratios for one scheme/workload."""

    scheme: str
    workload: str
    demand_writes: int
    swap_write_ratio: float
    swap_event_ratio: float
    extra_stats: Dict[str, float]


class SchemeOverheadsObserver(EngineObserver):
    """Collects the scheme's swap-overhead ratios at run end.

    The Figure-9 timing model needs each scheme's *measured* swap
    behaviour on each workload (swap writes per demand write, swap
    events per demand write); this observer extracts those ratios from
    the scheme's counters when the bounded drive finishes.
    """

    def __init__(self) -> None:
        self.overheads: Optional[SchemeOverheads] = None

    def on_run_end(self, engine: "SimulationEngine", outcome: "EngineOutcome") -> None:
        stats = engine.scheme.stats()
        self.overheads = SchemeOverheads(
            scheme=engine.scheme.name,
            workload=engine.driver.workload_name,
            demand_writes=outcome.demand_writes,
            swap_write_ratio=stats["swap_write_ratio"],
            swap_event_ratio=stats["swap_events"] / max(1.0, stats["demand_writes"]),
            extra_stats=stats,
        )


class WearTimelineObserver(EngineObserver):
    """Records ``(demand_writes, wear_fraction)`` samples over a run.

    ``every`` thins the sampling to one snapshot per that many engine
    steps (wear snapshots copy one array per sample, so per-step
    sampling of a per-write run would dominate the cost).
    """

    def __init__(self, every: int = 1) -> None:
        if every < 1:
            raise ValueError(f"sampling stride must be positive, got {every}")
        self.every = every
        self.samples: List[Tuple[int, np.ndarray]] = []

    def on_batch(self, snapshot: BatchSnapshot) -> None:
        if snapshot.index % self.every == 0 or snapshot.failed:
            self.samples.append((snapshot.demand_writes, snapshot.wear_fraction()))
