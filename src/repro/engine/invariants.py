"""Runtime invariant checking for engine runs.

:class:`InvariantCheckObserver` rides the observer interface to verify,
after every engine step, the contracts every wear-leveling scheme must
maintain no matter what the workload (or an injected soft error) does:

* **RT bijectivity** — the remapping table's forward and inverse arrays
  agree and every entry is in range
  (:meth:`repro.tables.remap.RemappingTable.consistency_errors`);
* **write-count conservation** — device writes on the array equal the
  writes the scheme issued (demand plus swap), i.e. no write is lost or
  double-counted anywhere in the stack;
* **ET immutability** — the endurance table never changes after format
  time (the paper stores tested endurance once; a changed entry means
  corrupted state, not a legal update);
* **SWPT pairing validity** — the pair table remains an involution
  (:meth:`repro.tables.pair_table.PairTable.involution_errors`).

A failed check raises :class:`repro.errors.InvariantViolation` naming
the scheme, the engine step and the offending table.  The observer is
``critical``: unlike metric observers, its exception aborts the run —
detecting corruption *is* its job.  Structures a scheme does not have
are skipped, so the checker attaches to any scheme; with no injected
faults it doubles as a (cheap, vectorized) self-test of the whole
simulation stack and provably never perturbs results (it only reads).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

import numpy as np

from ..errors import InvariantViolation
from .observers import BatchSnapshot, EngineObserver

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..wearlevel.base import WearLeveler
    from .core import EngineOutcome, SimulationEngine


class InvariantCheckObserver(EngineObserver):
    """Verify wear-leveler state invariants after every engine step."""

    critical = True

    def __init__(self, every: int = 1) -> None:
        if every < 1:
            raise ValueError(f"checking stride must be positive, got {every}")
        self.every = every
        #: Number of check passes performed (for tests / reporting).
        self.checks = 0
        self._scheme: Optional["WearLeveler"] = None
        self._et_snapshot: Optional[np.ndarray] = None
        self._write_base = 0

    def on_run_start(self, engine: "SimulationEngine") -> None:
        scheme = engine.scheme
        self._prime(scheme)

    def on_batch(self, snapshot: BatchSnapshot) -> None:
        if snapshot.index % self.every == 0 or snapshot.failed:
            self._check(snapshot.scheme, snapshot.index)

    def on_run_end(self, engine: "SimulationEngine", outcome: "EngineOutcome") -> None:
        self._check(engine.scheme, outcome.batches)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _prime(self, scheme: "WearLeveler") -> None:
        """Capture the reference state the invariants are checked against.

        The write-count baseline is a *delta* base (array writes minus
        scheme-issued writes at run start) so the checker also works on
        runs that begin on pre-worn arrays (a restored snapshot).
        """
        self._scheme = scheme
        endurance_table = getattr(scheme, "endurance_table", None)
        self._et_snapshot = (
            None if endurance_table is None else endurance_table.as_array()
        )
        self._write_base = (
            scheme.array.total_writes - scheme.total_physical_writes
        )

    def _check(self, scheme: "WearLeveler", step: int) -> None:
        if scheme is not self._scheme:
            # drive() without begin_run(), or a different scheme than the
            # one primed: (re-)baseline against this scheme now.
            self._prime(scheme)
        self.checks += 1
        name = scheme.name

        drift = (
            scheme.array.total_writes
            - scheme.total_physical_writes
            - self._write_base
        )
        if drift != 0:
            raise InvariantViolation(
                name,
                step,
                "accounting",
                [
                    f"device writes drifted from issued writes by {drift} "
                    f"(array {scheme.array.total_writes}, scheme demand "
                    f"{scheme.demand_writes} + swap {scheme.swap_writes})"
                ],
            )

        remap = getattr(scheme, "remap", None)
        if remap is not None:
            problems: List[str] = remap.consistency_errors()
            if problems:
                raise InvariantViolation(name, step, "rt", problems)

        if self._et_snapshot is not None:
            endurance_table = getattr(scheme, "endurance_table")
            if not np.array_equal(
                endurance_table.as_array(), self._et_snapshot
            ):
                changed = np.flatnonzero(
                    endurance_table.as_array() != self._et_snapshot
                ).tolist()[:5]
                raise InvariantViolation(
                    name,
                    step,
                    "et",
                    [
                        "endurance table mutated after format time at "
                        f"page(s) {changed}"
                    ],
                )

        pair_table = getattr(scheme, "pair_table", None)
        if pair_table is not None:
            problems = pair_table.involution_errors()
            if problems:
                raise InvariantViolation(name, step, "swpt", problems)


__all__ = ["InvariantCheckObserver"]
