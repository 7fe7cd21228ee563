"""Shared experiment configuration.

The full setup runs every cell of every figure at the default scaled
array (1024 pages, endurance-to-footprint ratio matching the paper's
full-scale memory).  The quick setup shrinks the array and subsamples
the benchmark list for CI/tests; set the environment variable
``REPRO_QUICK=1`` to make every benchmark target use it.

Execution knobs ride along on the setup: ``jobs`` fans the experiment
grids out across worker processes (``repro.exec``), ``cache_dir``
enables the on-disk result cache, ``failure`` carries the
:class:`~repro.exec.FailurePolicy` (retries, per-cell timeout,
fail-fast vs keep-going) and ``resume`` points at the campaign's own
result directory.  ``active_setup`` reads them from ``REPRO_JOBS`` /
``REPRO_CACHE_DIR`` / ``REPRO_BATCH_SIZE`` / ``REPRO_RETRIES`` /
``REPRO_CELL_TIMEOUT`` / ``REPRO_KEEP_GOING`` / ``REPRO_RESUME`` /
``REPRO_TRACE`` / ``REPRO_CHUNK_SIZE`` / ``REPRO_SNAPSHOT_EVERY`` so
the benchmark harness can be hardened without touching code.  The CLI
does not go through the environment: it builds its setup directly from
``--jobs`` / ``--cache-dir`` / ``--no-cache`` / ``--batch-size`` /
``--retries`` / ``--cell-timeout`` / ``--keep-going`` / ``--resume`` /
``--trace`` / ``--chunk-size`` / ``--snapshot-every``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from ..config import ScaledArrayConfig, TWLConfig
from ..exec.cells import DEFAULT_BATCH_SIZE
from ..exec.policy import ON_ERROR_KEEP_GOING, FailurePolicy

#: Figure-6/8 scheme sets, in the paper's plotting order.
FIG6_SCHEMES: Tuple[str, ...] = ("bwl", "sr", "twl_ap", "twl_swp", "nowl")
FIG8_SCHEMES: Tuple[str, ...] = ("bwl", "sr", "twl", "nowl")
FIG9_SCHEMES: Tuple[str, ...] = ("bwl", "sr", "twl")
ATTACKS: Tuple[str, ...] = ("repeat", "random", "scan", "inconsistent")

#: Paper Table 2 benchmark order.
BENCHMARKS: Tuple[str, ...] = (
    "blackscholes",
    "bodytrack",
    "canneal",
    "dedup",
    "facesim",
    "ferret",
    "fluidanimate",
    "freqmine",
    "rtview",
    "streamcluster",
    "swaptions",
    "vips",
    "x264",
)

_QUICK_BENCHMARKS: Tuple[str, ...] = ("canneal", "streamcluster", "vips", "x264")

#: ``ExperimentSetup`` fields that shape experiment outcomes — they
#: flow into cell specs and therefore into cache fingerprints.
SETUP_IDENTITY_FIELDS = frozenset(
    {
        "scaled",
        "benchmarks",
        "trace_writes",
        "overhead_writes",
        "seed",
        "twl_config",
        "stream_trace",
    }
)

#: ``ExperimentSetup`` fields that only steer *how* cells execute
#: (parallelism, caching, resilience) — by the executor's identity
#: contracts none of them can change a result.  Lint rule TWL003
#: requires every field to appear in exactly one of these two sets, so
#: a new field cannot silently join (or silently skip) cache identity.
SETUP_EXECUTION_FIELDS = frozenset(
    {
        "jobs",
        "cache_dir",
        "batch_size",
        "chunk_size",
        "failure",
        "resume",
        "snapshot_every",
    }
)


@dataclass(frozen=True)
class ExperimentSetup:
    """Scale and workload knobs shared by all experiments."""

    scaled: ScaledArrayConfig
    benchmarks: Tuple[str, ...]
    trace_writes: int
    overhead_writes: int
    seed: int = 2017
    twl_config: TWLConfig = field(default_factory=TWLConfig)
    #: Worker processes for experiment grids (1 = serial).
    jobs: int = 1
    #: On-disk result cache directory (None = caching off).
    cache_dir: Optional[str] = None
    #: Demand writes per engine step, applied to every cell the setup
    #: runs (default: the batched path at
    #: :data:`~repro.exec.cells.DEFAULT_BATCH_SIZE`; 1 = the per-write
    #: oracle path).  Bit-identical results at any value, so — like
    #: ``jobs`` — this is an execution knob, not part of a cell's cache
    #: identity.
    batch_size: int = DEFAULT_BATCH_SIZE
    #: Failure policy for campaign execution (retries, per-cell
    #: timeout, fail-fast vs keep-going).  Execution knobs only — a
    #: retried campaign is bit-identical to a clean one.
    failure: FailurePolicy = field(default_factory=FailurePolicy)
    #: Resume directory; when set, completed cells stored there are
    #: skipped and new completions are stored there (crash-safe resume,
    #: independent of the cache).
    resume: Optional[str] = None
    #: On-disk trace for the streaming experiment (None = the built-in
    #: FTL dynamic workload generator).  Identity-bearing: the trace
    #: *is* the workload.
    stream_trace: Optional[str] = None
    #: Requests per stream chunk.  Execution knob by the chunk-identity
    #: contract — segmentation never changes the request sequence.
    chunk_size: int = 65536
    #: Mid-run snapshot cadence in demand writes (0 = off).  When set
    #: (and ``cache_dir`` is available to hold the snapshot files),
    #: long cells periodically checkpoint engine state so a killed run
    #: resumes sub-cell instead of from zero.  Execution knob by the
    #: sub-cell recovery contract: emission is inert and a resumed run
    #: is bit-identical to an uninterrupted one.
    snapshot_every: int = 0

    @property
    def n_pages(self) -> int:
        """Pages in the scaled array."""
        return self.scaled.n_pages


def default_setup() -> ExperimentSetup:
    """The full-fidelity setup used for the recorded results."""
    return ExperimentSetup(
        scaled=ScaledArrayConfig(n_pages=1024, endurance_mean=12288.0),
        benchmarks=BENCHMARKS,
        trace_writes=300_000,
        overhead_writes=150_000,
    )


def quick_setup() -> ExperimentSetup:
    """Reduced setup for CI and tests (same ratio, smaller array)."""
    return ExperimentSetup(
        scaled=ScaledArrayConfig(n_pages=256, endurance_mean=3072.0),
        benchmarks=_QUICK_BENCHMARKS,
        trace_writes=60_000,
        overhead_writes=40_000,
    )


def active_setup() -> ExperimentSetup:
    """Setup selected by the ``REPRO_*`` environment variables.

    ``REPRO_QUICK=1`` picks the reduced scale; ``REPRO_JOBS=N`` fans
    experiment grids across N worker processes; ``REPRO_CACHE_DIR=path``
    enables the on-disk result cache there; ``REPRO_BATCH_SIZE=N``
    sets the demand writes per engine step for every cell (default
    :data:`~repro.exec.cells.DEFAULT_BATCH_SIZE`, the batched write
    protocol; ``1`` selects the per-write oracle path).  Resilience knobs:
    ``REPRO_RETRIES=N`` retries failed cells, ``REPRO_CELL_TIMEOUT=S``
    bounds each cell's wall clock, ``REPRO_KEEP_GOING=1`` finishes the
    campaign past failures, and ``REPRO_RESUME=dir`` stores results in
    (and resumes from) a result directory there.  Streaming knobs:
    ``REPRO_TRACE=path`` streams an on-disk trace instead of the FTL
    generator, ``REPRO_CHUNK_SIZE=N`` sets the stream chunk size, and
    ``REPRO_SNAPSHOT_EVERY=N`` emits a mid-run engine snapshot every N
    demand writes so killed cells resume sub-cell.
    """
    if os.environ.get("REPRO_QUICK", "").strip() in ("1", "true", "yes"):
        setup = quick_setup()
    else:
        setup = default_setup()
    jobs = os.environ.get("REPRO_JOBS", "").strip()
    if jobs:
        setup = replace(setup, jobs=max(1, int(jobs)))
    cache_dir = os.environ.get("REPRO_CACHE_DIR", "").strip()
    if cache_dir:
        setup = replace(setup, cache_dir=cache_dir)
    batch_size = os.environ.get("REPRO_BATCH_SIZE", "").strip()
    if batch_size:
        setup = replace(setup, batch_size=max(1, int(batch_size)))
    failure = setup.failure
    retries = os.environ.get("REPRO_RETRIES", "").strip()
    if retries:
        failure = replace(failure, max_retries=max(0, int(retries)))
    cell_timeout = os.environ.get("REPRO_CELL_TIMEOUT", "").strip()
    if cell_timeout:
        failure = replace(failure, timeout=float(cell_timeout))
    if os.environ.get("REPRO_KEEP_GOING", "").strip() in ("1", "true", "yes"):
        failure = replace(failure, on_error=ON_ERROR_KEEP_GOING)
    if failure is not setup.failure:
        setup = replace(setup, failure=failure)
    resume = os.environ.get("REPRO_RESUME", "").strip()
    if resume:
        setup = replace(setup, resume=resume)
    stream_trace = os.environ.get("REPRO_TRACE", "").strip()
    if stream_trace:
        setup = replace(setup, stream_trace=stream_trace)
    chunk_size = os.environ.get("REPRO_CHUNK_SIZE", "").strip()
    if chunk_size:
        setup = replace(setup, chunk_size=max(1, int(chunk_size)))
    snapshot_every = os.environ.get("REPRO_SNAPSHOT_EVERY", "").strip()
    if snapshot_every:
        setup = replace(setup, snapshot_every=max(0, int(snapshot_every)))
    return setup
