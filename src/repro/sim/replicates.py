"""Multi-seed replication of lifetime experiments.

The paper reports single runs; a reproduction should quantify run-to-run
variance (endurance sampling, trace generation and the schemes' RNGs all
move the result).  :func:`replicate_attack_lifetime` reruns an attack
experiment across derived seeds — every stochastic component
re-derives its stream from the replicate seed — and summarizes the
lifetime-fraction distribution.

Replicates are independent experiment cells, so they run through
``repro.exec``: pass ``jobs=N`` to fan them across worker processes
and ``cache`` to reuse results across sessions.  A failing replicate
surfaces its identity (``replicate=3 seed=…``) rather than a bare
traceback.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from ..config import ScaledArrayConfig
from ..errors import SimulationError
from ..exec.cache import CellCache
from ..exec.cells import ExperimentCell, attack_cell
from ..exec.executor import run_cells
from ..rng.streams import derive_seed
from .lifetime import LifetimeResult
from .runner import DEFAULT_SCALED


@dataclass(frozen=True)
class ReplicatedLifetime:
    """Summary of a lifetime experiment across seeds."""

    scheme: str
    workload: str
    fractions: tuple
    results: tuple

    @property
    def n_replicates(self) -> int:
        """Number of runs summarized."""
        return len(self.fractions)

    @property
    def mean(self) -> float:
        """Mean lifetime fraction."""
        return float(np.mean(self.fractions))

    @property
    def std(self) -> float:
        """Standard deviation of the lifetime fraction."""
        return float(np.std(self.fractions, ddof=1)) if self.n_replicates > 1 else 0.0

    @property
    def minimum(self) -> float:
        """Worst replicate."""
        return float(np.min(self.fractions))

    @property
    def maximum(self) -> float:
        """Best replicate."""
        return float(np.max(self.fractions))

    def confidence_halfwidth(self) -> float:
        """~95% normal-approximation half-width of the mean."""
        if self.n_replicates < 2:
            return 0.0
        return 1.96 * self.std / np.sqrt(self.n_replicates)


def _replicate_cells(
    cells: List[ExperimentCell],
    jobs: int,
    cache: Optional[CellCache],
) -> ReplicatedLifetime:
    if not cells:
        raise SimulationError("need at least one replicate")
    # Each cell's label carries ``replicate=i seed=…``, so a failing
    # replicate names itself (via the executor's shared error wrapping)
    # instead of surfacing a bare traceback.
    results: List[LifetimeResult] = run_cells(cells, jobs=jobs, cache=cache)
    return ReplicatedLifetime(
        scheme=results[0].scheme,
        workload=results[0].workload,
        fractions=tuple(r.lifetime_fraction for r in results),
        results=tuple(results),
    )


def replicate_attack_lifetime(
    scheme_name: str,
    attack_name: str,
    n_replicates: int = 5,
    scaled: ScaledArrayConfig = DEFAULT_SCALED,
    seed: int = 2017,
    scheme_kwargs: Optional[dict] = None,
    attack_kwargs: Optional[dict] = None,
    jobs: int = 1,
    cache: Optional[CellCache] = None,
) -> ReplicatedLifetime:
    """Attack lifetime across ``n_replicates`` independent seeds."""
    cells = []
    for index in range(n_replicates):
        replicate_seed = derive_seed(seed, "replicate", index)
        cells.append(
            attack_cell(
                scheme_name,
                attack_name,
                scaled=replace(scaled, seed=replicate_seed),
                seed=replicate_seed,
                scheme_kwargs=scheme_kwargs,
                attack_kwargs=attack_kwargs,
                label=f"replicate={index} seed={replicate_seed}",
            )
        )
    return _replicate_cells(cells, jobs, cache)

