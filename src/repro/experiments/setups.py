"""Shared experiment configuration.

The full setup runs every cell of every figure at the default scaled
array (1024 pages, endurance-to-footprint ratio matching the paper's
full-scale memory).  The quick setup shrinks the array and subsamples
the benchmark list for CI/tests (``twl-repro --quick``; the benchmark
harness picks it with ``REPRO_QUICK=1``).

Execution knobs ride along on the setup: ``jobs`` fans the experiment
grids out across worker processes (``repro.exec``), ``cache_dir``
enables the on-disk result cache, ``failure`` carries the
:class:`~repro.exec.FailurePolicy` (retries, per-cell timeout,
fail-fast vs keep-going) and ``resume`` points at the campaign's own
result directory.  The CLI is their one front door: it builds the
setup from ``--jobs`` / ``--cache-dir`` / ``--no-cache`` /
``--batch-size`` / ``--retries`` / ``--cell-timeout`` /
``--keep-going`` / ``--resume`` / ``--trace`` / ``--chunk-size`` /
``--snapshot-every``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..config import ScaledArrayConfig, TWLConfig
from ..errors import ConfigError
from ..exec.cells import DEFAULT_BATCH_SIZE
from ..exec.policy import FailurePolicy

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
    #: Mid-run snapshot cadence in demand writes (0 = off).  When set,
    #: long cells periodically checkpoint engine state into
    #: ``cache_dir`` (or ``resume`` when the cache is off; a cadence
    #: with neither is a :class:`~repro.errors.ConfigError`) so a killed
    #: run resumes sub-cell instead of from zero.  Execution knob by the
    #: sub-cell recovery contract: emission is inert and a resumed run
    #: is bit-identical to an uninterrupted one.
    snapshot_every: int = 0

    def __post_init__(self) -> None:
        if self.snapshot_every > 0 and not (self.cache_dir or self.resume):
            raise ConfigError(
                "snapshots need a directory to live in: a snapshot cadence "
                "(--snapshot-every) requires the cache or a resume "
                "directory (--resume DIR)"
            )

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
