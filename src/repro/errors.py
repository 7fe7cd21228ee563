"""Exception hierarchy for the TWL reproduction library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterable, Iterator, Sequence


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigError(ReproError):
    """A configuration value is invalid or inconsistent."""


class AddressError(ReproError):
    """A logical or physical address is out of range."""


class TableError(ReproError):
    """A hardware-table invariant was violated (bad entry, wrong width)."""


class TraceError(ReproError):
    """A trace file or request stream is malformed."""


class SimulationError(ReproError):
    """The simulator reached an inconsistent state."""


class SnapshotError(ReproError):
    """A mid-run snapshot file is malformed, truncated or mismatched.

    Raised by :mod:`repro.engine.snapshot` when a snapshot container
    fails its magic/version/CRC validation, or when a snapshot's
    recorded identity (scheme, page count) does not match the run it is
    being restored into.  A corrupt snapshot never silently resumes: the
    caller falls back to recomputing the cell from scratch.
    """


class InvariantViolation(SimulationError):
    """A runtime hardware-state invariant failed during an engine run.

    Raised by :class:`repro.engine.InvariantCheckObserver` when one of
    the contracts every wear leveler must maintain — remapping-table
    bijectivity, write-count conservation, endurance-table immutability,
    SWPT pairing validity — stops holding, typically because injected
    soft errors (:mod:`repro.pcm.softerrors`) corrupted controller state
    without protection.  Carries the scheme name, the engine step index
    and the offending structure so campaign logs can name the failure
    precisely.  It has a multi-argument constructor, so the executor
    wraps it into a single-string :class:`CellExecutionError` before it
    crosses a pool boundary.
    """

    def __init__(
        self, scheme: str, step: int, table: str, details: Sequence[str]
    ) -> None:
        self.scheme = scheme
        self.step = step
        self.table = table
        self.details = list(details)
        described = "; ".join(self.details) or "invariant violated"
        super().__init__(
            f"invariant violation in scheme {scheme!r} at engine step "
            f"{step} [{table}]: {described}"
        )


class CellExecutionError(SimulationError):
    """An experiment cell failed inside the executor.

    Always constructed with a single message string so it survives
    pickling across :class:`concurrent.futures.ProcessPoolExecutor`
    boundaries (exceptions with multi-argument constructors, such as
    :class:`InvariantViolation`, cannot be unpickled by the pool).
    """


class CellTimeoutError(CellExecutionError):
    """An experiment cell exceeded its per-cell wall-clock budget.

    Raised by the executor when a :class:`repro.exec.FailurePolicy`
    carries a ``timeout`` and the cell runs past it.  Subclasses
    :class:`CellExecutionError` (single message string, pool-picklable)
    so existing handlers keep working while callers that care can tell
    a timeout from an in-simulation failure.
    """


class DeterminismViolation(ReproError):
    """Global RNG state was consulted inside result-producing code.

    Raised by the runtime determinism sanitizer
    (:mod:`repro.devtools.sanitize`, armed via ``REPRO_SANITIZE=1`` or
    ``--sanitize``) when a ``random`` / ``numpy.random`` global-state
    entry point fires inside the engine step loop or a cell run —
    exactly the leak that would silently break cache reuse and resume
    bit-identity (rule TWL001 in ``docs/invariants.md``).
    """


class CampaignError(ReproError):
    """One or more cells failed during a ``keep-going`` campaign.

    Under :class:`repro.exec.FailurePolicy`'s ``on_error="keep-going"``
    mode the executor finishes every runnable cell, records structured
    ``CellFailure`` outcomes for the ones that exhausted their retry
    budget, and raises a single :class:`CampaignError` summarizing them
    at the end — the cells that did finish are already in the cache and
    the resume directory, so a repaired re-run only pays for the
    failures.  ``failures`` preserves the structured records.
    """

    def __init__(self, failures: Iterable[Any]) -> None:
        self.failures = list(failures)
        summary = "; ".join(str(failure) for failure in self.failures)
        count = len(self.failures)
        super().__init__(f"{count} cell(s) failed: {summary}")


@contextmanager
def error_context(label: str, error_type: type = SimulationError) -> Iterator[None]:
    """Re-raise any :class:`ReproError` with ``label`` prepended.

    Shared by the experiment executor (which labels failures with the
    failing cell's identity) and the replicate runner (which labels them
    with the replicate index and derived seed).  Programming errors
    (``TypeError`` etc.) propagate unwrapped, per the package policy.
    """
    try:
        yield
    except ReproError as error:
        raise error_type(f"{label}: {error}") from error
