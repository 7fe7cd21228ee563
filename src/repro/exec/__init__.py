"""Parallel experiment execution with on-disk result caching.

The executor layer turns the reproduction's figure/table loops into
declarative grids of independent cells:

* :mod:`repro.exec.cells` — :class:`ExperimentCell` specs and the
  single-cell runner;
* :mod:`repro.exec.hashing` — stable content fingerprints keying the
  cache, over the cell spec and the result-bearing source code;
* :mod:`repro.exec.cache` — :class:`CellCache`, one JSON file per cell
  under ``~/.cache/twl-repro/``, the one durable result store: the
  shared cache, a campaign's ``--resume`` directory and each server
  session are all cache directories;
* :mod:`repro.exec.executor` — serial or process-pool execution with
  progress lines and per-cell timing;
* :mod:`repro.exec.pool` — :class:`PoolSupervisor`, the worker pool and
  its worker-loss policy, shared by the executor and ``twl-repro serve``;
* :mod:`repro.exec.deadline` — :class:`CellDeadline`, the portable
  any-thread per-cell wall-clock budget behind ``FailurePolicy.timeout``;
* :mod:`repro.exec.policy` — :class:`FailurePolicy` (retries with
  deterministic backoff, per-cell timeout, fail-fast vs keep-going);
* :mod:`repro.exec.faults` — deterministic, env-activated fault
  injection used by ``tests/test_resilience.py`` and the CI smoke job.

Typical use::

    from repro.exec import attack_cell, run_cells, CellCache, default_cache_dir

    cells = [attack_cell(s, a) for s in ("twl_swp", "bwl") for a in ("scan", "repeat")]
    results = run_cells(cells, jobs=4, cache=CellCache(default_cache_dir()))

``twl-repro <experiment> --jobs N`` is the CLI face of the same layer.
"""

from .cells import (
    DEFAULT_BATCH_SIZE,
    KIND_ATTACK,
    KIND_OVERHEADS,
    KIND_STREAM,
    KIND_TRACE,
    CellResult,
    ExperimentCell,
    attack_cell,
    cell_snapshot_path,
    overheads_cell,
    run_cell,
    stream_cell,
    trace_cell,
)
from .hashing import CACHE_FORMAT_VERSION, canonical_value, cell_fingerprint
from .policy import (
    DEFAULT_FAILURE_POLICY,
    ON_ERROR_FAIL_FAST,
    ON_ERROR_KEEP_GOING,
    CellFailure,
    FailurePolicy,
)
from .faults import FAULTS_ENV, FaultInjectionError, FaultPlan, active_plan
from .cache import CellCache, decode_result, default_cache_dir, encode_result
from .deadline import CellDeadline, DeadlineReached
from .executor import CellOutcome, execute_cells, run_cells, run_setup_cells

__all__ = [
    "DEFAULT_FAILURE_POLICY",
    "ON_ERROR_FAIL_FAST",
    "ON_ERROR_KEEP_GOING",
    "CellFailure",
    "FailurePolicy",
    "FAULTS_ENV",
    "FaultInjectionError",
    "FaultPlan",
    "active_plan",
    "CellDeadline",
    "DeadlineReached",
    "decode_result",
    "encode_result",
    "DEFAULT_BATCH_SIZE",
    "KIND_ATTACK",
    "KIND_OVERHEADS",
    "KIND_STREAM",
    "KIND_TRACE",
    "CellResult",
    "ExperimentCell",
    "attack_cell",
    "cell_snapshot_path",
    "overheads_cell",
    "run_cell",
    "stream_cell",
    "trace_cell",
    "CACHE_FORMAT_VERSION",
    "canonical_value",
    "cell_fingerprint",
    "CellCache",
    "default_cache_dir",
    "CellOutcome",
    "execute_cells",
    "run_cells",
    "run_setup_cells",
]
