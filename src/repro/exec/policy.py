"""Failure policy for campaign execution.

A long campaign (40 Figure-6 cells, hundreds of ablation cells) is
exactly the workload where partial failure is the common case: a worker
gets OOM-killed, a shared filesystem hiccups, one cell hangs.
:class:`FailurePolicy` is the single knob bundle describing how the
executor (:mod:`repro.exec.executor`) responds:

* ``max_retries`` — failed cell attempts are re-run up to this many
  extra times.  A cell's result is a pure function of its spec, so a
  retry that succeeds is *bit-identical* to a first-attempt success —
  retrying is always safe.
* ``timeout`` — per-cell wall-clock budget in seconds.  A cell running
  past it fails with :class:`~repro.errors.CellTimeoutError` (a
  :class:`~repro.errors.CellExecutionError`) naming the cell.
* ``on_error`` — ``"fail-fast"`` (default: first exhausted failure
  aborts the campaign, matching historical behavior) or
  ``"keep-going"`` (every runnable cell is finished; failures are
  recorded as :class:`CellFailure` outcomes and a single
  :class:`~repro.errors.CampaignError` summarizes them at the end).

Retries wait ``BACKOFF_BASE * BACKOFF_FACTOR**(attempt-1)`` seconds,
scaled by a jitter factor drawn *deterministically* from the
:mod:`repro.rng` streams (keyed by the cell fingerprint, the attempt
number and ``BACKOFF_SEED``), so two campaigns sleep the same schedule
— no wall-clock or OS entropy enters the run.

Like ``jobs`` and ``batch_size``, every field here is an **execution
knob**: none of them participates in the cell cache fingerprint,
because none of them can change a cell's result (see
``docs/robustness.md``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from ..rng.streams import make_generator

#: ``on_error`` modes.
ON_ERROR_FAIL_FAST = "fail-fast"
ON_ERROR_KEEP_GOING = "keep-going"
_ON_ERROR_MODES = (ON_ERROR_FAIL_FAST, ON_ERROR_KEEP_GOING)

#: Seconds before the first retry (0 disables backoff sleeping).
BACKOFF_BASE = 0.05
#: Multiplier applied per additional retry.
BACKOFF_FACTOR = 2.0
#: Jitter half-width as a fraction of the nominal delay.
BACKOFF_JITTER = 0.25
#: Root seed of the deterministic jitter stream.
BACKOFF_SEED = 2017


@dataclass(frozen=True)
class FailurePolicy:
    """Execution-resilience knobs for :func:`repro.exec.execute_cells`.

    The default policy reproduces the historical executor exactly: no
    retries, no timeout, fail-fast on the first cell error.
    """

    #: Extra attempts after the first failure (0 = no retries).
    max_retries: int = 0
    #: Per-cell wall-clock budget in seconds (None = unlimited).
    timeout: float | None = None
    #: ``"fail-fast"`` or ``"keep-going"``.
    on_error: str = ON_ERROR_FAIL_FAST

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigError(f"timeout must be positive, got {self.timeout}")
        if self.on_error not in _ON_ERROR_MODES:
            raise ConfigError(
                f"unknown on_error mode {self.on_error!r}; expected {_ON_ERROR_MODES}"
            )

    @property
    def keep_going(self) -> bool:
        """Whether failures are collected instead of aborting."""
        return self.on_error == ON_ERROR_KEEP_GOING


def retry_delay(fingerprint: str, attempt: int) -> float:
    """Deterministic backoff delay before retry ``attempt`` (1-based).

    >>> retry_delay("abcd", 1) == retry_delay("abcd", 1)
    True
    >>> retry_delay("abcd", 2) != retry_delay("abcd", 1)
    True
    """
    if BACKOFF_BASE <= 0:
        return 0.0
    nominal = BACKOFF_BASE * BACKOFF_FACTOR ** max(0, attempt - 1)
    unit = make_generator(BACKOFF_SEED, "retry", fingerprint, attempt)
    swing = BACKOFF_JITTER * (2.0 * float(unit.random()) - 1.0)
    return nominal * (1.0 + swing)


#: Shared default instance — frozen, so safe to reuse everywhere.
DEFAULT_FAILURE_POLICY = FailurePolicy()


@dataclass(frozen=True)
class CellFailure:
    """Structured record of one cell that exhausted its retry budget."""

    #: ``cell.describe()`` identity of the failed cell.
    cell: str
    #: Cache fingerprint of the failed cell.
    fingerprint: str
    #: Message of the final :class:`~repro.errors.CellExecutionError`.
    error: str
    #: Total attempts made (1 = no retries were granted or needed).
    attempts: int

    def __str__(self) -> str:
        return f"{self.cell} after {self.attempts} attempt(s): {self.error}"
