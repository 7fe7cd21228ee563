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
* backoff — retries wait ``backoff_base * backoff_factor**(attempt-1)``
  seconds, scaled by a jitter factor drawn *deterministically* from the
  :mod:`repro.rng` streams (keyed by the cell fingerprint, the attempt
  number and ``backoff_seed``), so two campaigns with the same policy
  sleep the same schedule — no wall-clock or OS entropy enters the run.

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


@dataclass(frozen=True)
class FailurePolicy:
    """Execution-resilience knobs for :func:`repro.exec.execute_cells`.

    The default policy reproduces the historical executor exactly: no
    retries, no timeout, fail-fast on the first cell error.
    """

    #: Extra attempts after the first failure (0 = no retries).
    max_retries: int = 0
    #: Seconds before the first retry (0 disables backoff sleeping).
    backoff_base: float = 0.05
    #: Multiplier applied per additional retry.
    backoff_factor: float = 2.0
    #: Jitter half-width as a fraction of the nominal delay (0..1).
    backoff_jitter: float = 0.25
    #: Root seed of the deterministic jitter stream.
    backoff_seed: int = 2017
    #: Per-cell wall-clock budget in seconds (None = unlimited).
    timeout: float | None = None
    #: ``"fail-fast"`` or ``"keep-going"``.
    on_error: str = ON_ERROR_FAIL_FAST
    #: Pool rebuilds at full width after worker crashes; each later
    #: rebuild halves the pool (floor 1).  A crash counts as a failed
    #: attempt only when the pool had one worker (:mod:`repro.exec.pool`).
    max_pool_rebuilds: int = 2

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0:
            raise ConfigError(f"backoff_base must be >= 0, got {self.backoff_base}")
        if self.backoff_factor < 1.0:
            raise ConfigError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ConfigError(
                f"backoff_jitter must be in [0, 1], got {self.backoff_jitter}"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigError(f"timeout must be positive, got {self.timeout}")
        if self.on_error not in _ON_ERROR_MODES:
            raise ConfigError(
                f"unknown on_error mode {self.on_error!r}; expected {_ON_ERROR_MODES}"
            )
        if self.max_pool_rebuilds < 0:
            raise ConfigError(
                f"max_pool_rebuilds must be >= 0, got {self.max_pool_rebuilds}"
            )

    @property
    def keep_going(self) -> bool:
        """Whether failures are collected instead of aborting."""
        return self.on_error == ON_ERROR_KEEP_GOING

    def retry_delay(self, fingerprint: str, attempt: int) -> float:
        """Deterministic backoff delay before retry ``attempt`` (1-based).

        >>> policy = FailurePolicy(max_retries=3, backoff_base=0.1)
        >>> policy.retry_delay("abcd", 1) == policy.retry_delay("abcd", 1)
        True
        >>> policy.retry_delay("abcd", 2) != policy.retry_delay("abcd", 1)
        True
        """
        if self.backoff_base <= 0:
            return 0.0
        nominal = self.backoff_base * self.backoff_factor ** max(0, attempt - 1)
        if self.backoff_jitter == 0:
            return nominal
        unit = make_generator(self.backoff_seed, "retry", fingerprint, attempt)
        swing = self.backoff_jitter * (2.0 * float(unit.random()) - 1.0)
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
