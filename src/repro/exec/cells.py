"""Declarative experiment cells.

Every figure and table of the reproduction decomposes into *cells*: one
scheme driven by one workload at one scale with one seed.  Cells are
fully independent — each derives every random stream it needs from its
own seed (``repro.rng.streams``) — which is what makes them safe to fan
out across worker processes and to cache on disk.

:class:`ExperimentCell` is a picklable, declarative spec of one such
cell; :func:`run_cell` executes it.  Four cell kinds exist:

* ``attack`` — run a scheme to first failure under a named attack
  (:func:`repro.sim.runner.measure_attack_lifetime`), yielding a
  :class:`~repro.sim.lifetime.LifetimeResult`;
* ``trace`` — run a scheme to first failure looping a synthetic
  benchmark trace regenerated inside the worker from the profile,
  yielding a :class:`~repro.sim.lifetime.LifetimeResult`;
* ``overheads`` — drive a bounded write budget and report the scheme's
  measured swap behaviour
  (:class:`~repro.sim.metrics.SchemeOverheads`), used by the Figure-9
  timing model and the Figure-7(a) swap-ratio sweep;
* ``stream`` — run a scheme to first failure under a streamed workload
  (:func:`repro.sim.runner.measure_stream_lifetime`): either a
  registered dynamic generator (``repro.traces.registry``, e.g. the
  FTL workload) sized inside the worker to the scheme's logical space,
  or an on-disk trace opened through
  :func:`~repro.traces.io.open_trace_stream` — never materialized, so
  the cell runs at constant memory regardless of trace length.

Because a worker only receives the spec (never a live trace, array or
scheme object), executing a cell in a subprocess is bit-identical to
executing it in the parent — the tests in ``tests/test_exec.py`` assert
exactly that.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from ..config import ScaledArrayConfig, SoftErrorConfig
from ..devtools import sanitize
from ..engine import SnapshotPlan, discard_snapshot
from ..errors import ConfigError
from ..sim.drivers import StreamDriver
from ..traces.trace import Trace
from ..sim.lifetime import LifetimeResult
from ..sim.metrics import SchemeOverheads, measure_scheme_overheads
from ..sim.runner import (
    DEFAULT_SCALED,
    build_array,
    measure_attack_lifetime,
    measure_stream_lifetime,
    measure_trace_lifetime,
)
from ..traces.io import open_trace_stream
from ..traces.parsec import BenchmarkProfile, get_profile, make_benchmark_trace
from ..traces.registry import make_stream
from ..traces.stream import DEFAULT_CHUNK_REQUESTS, TraceStream
from ..wearlevel.registry import make_scheme

#: Cell kinds.
KIND_ATTACK = "attack"
KIND_TRACE = "trace"
KIND_OVERHEADS = "overheads"
KIND_STREAM = "stream"
_KINDS = (KIND_ATTACK, KIND_TRACE, KIND_OVERHEADS, KIND_STREAM)

#: Union of the result types a cell can produce.
CellResult = Union[LifetimeResult, SchemeOverheads]

#: Demand writes per engine step for every experiment-facing entry
#: point (``ExperimentCell``, ``ExperimentSetup``, the CLI's
#: ``--batch-size``): cells are served by the schemes' batched
#: ``write_batch`` planners.  ``1`` selects the per-write oracle loop;
#: by the batch-identity contract both give the same result.
DEFAULT_BATCH_SIZE = 4096


@dataclass(frozen=True)
class ExperimentCell:
    """Spec of one scheme × workload × seed experiment cell.

    ``workload`` names an attack (``attack`` kind) or a benchmark
    profile (``trace`` / ``overheads`` kinds); a custom
    :class:`BenchmarkProfile` can be supplied via ``profile`` for
    workloads that are not in the registry.  ``scheme_kwargs`` /
    ``attack_kwargs`` are passed through to the factories, so
    configuration dataclasses (``TWLConfig`` etc.) ride along and
    participate in the cache fingerprint.
    """

    kind: str
    scheme: str
    workload: str
    scaled: ScaledArrayConfig = DEFAULT_SCALED
    seed: int = 2017
    scheme_kwargs: Dict = field(default_factory=dict)
    attack_kwargs: Dict = field(default_factory=dict)
    #: Length of the synthetic trace (``trace``/``overheads`` kinds).
    trace_writes: int = 0
    #: Demand writes to drive (``overheads`` kind only).
    drive_writes: int = 0
    #: Override of the profile's sparse-footprint fraction.
    footprint_override: Optional[float] = None
    #: Explicit profile for non-registry workloads.
    profile: Optional[BenchmarkProfile] = None
    #: Display label for progress lines and error messages.
    label: str = ""
    #: Demand writes per engine step (default: the batched path at
    #: :data:`DEFAULT_BATCH_SIZE`; 1 = the per-write oracle path).  By
    #: the batch-identity contract the result is the same for every
    #: value, so this field is *excluded* from the cache fingerprint —
    #: it is an execution knob, not part of the experiment's identity.
    batch_size: int = DEFAULT_BATCH_SIZE
    #: Controller soft-error injection (``attack``/``trace`` kinds).
    #: Part of the cell's identity: a faulted run is a different
    #: experiment than a clean one.
    soft_errors: Optional[SoftErrorConfig] = None
    #: Attach the runtime invariant checker to the run.  An execution
    #: knob (pure verification — it either passes with an unchanged
    #: result or fails the cell), excluded from the fingerprint.
    check_invariants: bool = False
    #: On-disk trace to stream (``stream`` kind; exclusive with a
    #: generator ``workload``).  Identity-bearing: the fingerprint
    #: covers the path string and a digest of the file's contents, so a
    #: trace rewritten in place is recomputed, never served stale.
    trace_path: Optional[str] = None
    #: Extra keyword arguments for the stream generator factory
    #: (``stream`` kind), e.g. ``{"config": FTLConfig(...)}``.
    #: Identity-bearing, like ``scheme_kwargs``.
    stream_kwargs: Dict = field(default_factory=dict)
    #: Requests per stream chunk (``stream`` kind).  An execution knob:
    #: chunk segmentation only changes delivery granularity, never the
    #: request sequence, so results are bit-identical at any value.
    chunk_size: int = DEFAULT_CHUNK_REQUESTS
    #: Mid-run snapshot cadence in demand writes (0 = disabled).  An
    #: execution knob: snapshot emission is inert and a resumed run is
    #: bit-identical to an uninterrupted one (sub-cell recovery,
    #: ``docs/robustness.md``), so the cached result is valid at any
    #: cadence.  Ignored by ``overheads`` cells (bounded short drives).
    snapshot_every: int = 0
    #: Directory for this cell's snapshot file (named by the cell
    #: fingerprint).  An execution knob like the cadence; both must be
    #: set for checkpointing to arm.
    snapshot_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown cell kind {self.kind!r}; expected {_KINDS}")
        if self.kind in (KIND_TRACE, KIND_OVERHEADS) and self.trace_writes < 1:
            raise ConfigError(f"{self.kind} cells need trace_writes >= 1")
        if self.kind == KIND_OVERHEADS and self.drive_writes < 1:
            raise ConfigError("overheads cells need drive_writes >= 1")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be positive, got {self.batch_size}")
        if self.chunk_size < 1:
            raise ConfigError(f"chunk size must be positive, got {self.chunk_size}")
        if self.kind == KIND_OVERHEADS and self.soft_errors is not None:
            raise ConfigError(
                "overheads cells do not support soft-error injection "
                "(the timing model needs clean swap counters)"
            )
        if self.trace_path is not None and self.kind != KIND_STREAM:
            raise ConfigError(f"{self.kind} cells do not take trace_path")
        if self.snapshot_every < 0:
            raise ConfigError(
                f"snapshot cadence must be non-negative, got {self.snapshot_every}"
            )

    def describe(self) -> str:
        """Human-readable identity: ``twl_swp×scan seed=2017``."""
        base = f"{self.scheme}×{self.workload} seed={self.seed}"
        if self.label:
            return f"{base} [{self.label}]"
        return base


def attack_cell(
    scheme: str,
    attack: str,
    scaled: ScaledArrayConfig = DEFAULT_SCALED,
    seed: int = 2017,
    scheme_kwargs: Optional[dict] = None,
    attack_kwargs: Optional[dict] = None,
    label: str = "",
    soft_errors: Optional[SoftErrorConfig] = None,
    check_invariants: bool = False,
) -> ExperimentCell:
    """Cell spec for a run-to-failure attack experiment."""
    return ExperimentCell(
        kind=KIND_ATTACK,
        scheme=scheme,
        workload=attack,
        scaled=scaled,
        seed=seed,
        scheme_kwargs=dict(scheme_kwargs or {}),
        attack_kwargs=dict(attack_kwargs or {}),
        label=label,
        soft_errors=soft_errors,
        check_invariants=check_invariants,
    )


def trace_cell(
    scheme: str,
    benchmark: str,
    trace_writes: int,
    scaled: ScaledArrayConfig = DEFAULT_SCALED,
    seed: int = 2017,
    scheme_kwargs: Optional[dict] = None,
    footprint_override: Optional[float] = None,
    profile: Optional[BenchmarkProfile] = None,
    label: str = "",
) -> ExperimentCell:
    """Cell spec for a run-to-failure benchmark-trace experiment."""
    return ExperimentCell(
        kind=KIND_TRACE,
        scheme=scheme,
        workload=benchmark,
        scaled=scaled,
        seed=seed,
        scheme_kwargs=dict(scheme_kwargs or {}),
        trace_writes=trace_writes,
        footprint_override=footprint_override,
        profile=profile,
        label=label,
    )


def overheads_cell(
    scheme: str,
    benchmark: str,
    trace_writes: int,
    drive_writes: int,
    scaled: ScaledArrayConfig = DEFAULT_SCALED,
    seed: int = 2017,
    scheme_kwargs: Optional[dict] = None,
    profile: Optional[BenchmarkProfile] = None,
    label: str = "",
) -> ExperimentCell:
    """Cell spec for a bounded-drive swap-overhead measurement."""
    return ExperimentCell(
        kind=KIND_OVERHEADS,
        scheme=scheme,
        workload=benchmark,
        scaled=scaled,
        seed=seed,
        scheme_kwargs=dict(scheme_kwargs or {}),
        trace_writes=trace_writes,
        drive_writes=drive_writes,
        profile=profile,
        label=label,
    )


def stream_cell(
    scheme: str,
    stream: Optional[str] = None,
    trace_path: Optional[str] = None,
    scaled: ScaledArrayConfig = DEFAULT_SCALED,
    seed: int = 2017,
    scheme_kwargs: Optional[dict] = None,
    stream_kwargs: Optional[dict] = None,
    chunk_size: int = DEFAULT_CHUNK_REQUESTS,
    label: str = "",
    soft_errors: Optional[SoftErrorConfig] = None,
    check_invariants: bool = False,
) -> ExperimentCell:
    """Cell spec for a run-to-failure streamed-workload experiment.

    Exactly one of ``stream`` (a registered generator name, e.g.
    ``"ftl"``) or ``trace_path`` (an on-disk trace for
    :func:`~repro.traces.io.open_trace_stream`) selects the workload.
    """
    if (stream is None) == (trace_path is None):
        raise ConfigError(
            "stream cells take exactly one of a generator name (stream=) "
            "or an on-disk trace (trace_path=)"
        )
    if stream is not None:
        workload = stream
    else:
        workload = os.path.splitext(os.path.basename(str(trace_path)))[0]
    return ExperimentCell(
        kind=KIND_STREAM,
        scheme=scheme,
        workload=workload,
        scaled=scaled,
        seed=seed,
        scheme_kwargs=dict(scheme_kwargs or {}),
        stream_kwargs=dict(stream_kwargs or {}),
        trace_path=trace_path,
        chunk_size=chunk_size,
        label=label,
        soft_errors=soft_errors,
        check_invariants=check_invariants,
    )


def _benchmark_trace(cell: ExperimentCell) -> Trace:
    profile = cell.profile or get_profile(cell.workload)
    return make_benchmark_trace(
        profile,
        cell.scaled.n_pages,
        cell.trace_writes,
        seed=cell.seed,
        footprint_override=cell.footprint_override,
    )


def _stream_factory(cell: ExperimentCell):
    """Late-binding stream factory for a ``stream`` cell.

    Built inside the worker from the picklable spec; the stream itself
    is constructed only after the scheme exists, so generators size
    themselves to the scheme's *logical* space (Start-Gap reserves a
    physical frame).
    """
    if cell.trace_path is not None:
        path = cell.trace_path
        chunk_size = cell.chunk_size

        def from_file(n_pages: int) -> TraceStream:
            return open_trace_stream(path, chunk_size=chunk_size)

        return from_file

    def from_generator(n_pages: int) -> TraceStream:
        return make_stream(
            cell.workload,
            n_pages,
            seed=cell.seed,
            chunk_size=cell.chunk_size,
            **dict(cell.stream_kwargs),
        )

    return from_generator


def run_cell(cell: ExperimentCell) -> CellResult:
    """Execute one cell exactly as the serial experiment code would.

    Everything stochastic inside — endurance sampling, trace
    generation, scheme and attack RNGs — derives from ``cell.seed`` and
    ``cell.scaled.seed``, so the result is a pure function of the spec.

    The whole cell is a sanitizer-protected region: under
    ``REPRO_SANITIZE=1`` (checked here so pool workers arm themselves
    from the inherited environment) any global-RNG call inside raises
    :class:`~repro.errors.DeterminismViolation` instead of silently
    breaking that purity.
    """
    sanitize.maybe_install_from_env()
    with sanitize.protected(f"cell {cell.describe()}"):
        return _run_cell_inner(cell)


def cell_snapshot_path(cell: ExperimentCell) -> Optional[str]:
    """Where this cell's mid-run snapshot lives, if checkpointing is on.

    Named by the cell fingerprint so a resumed process finds exactly the
    snapshot of the experiment it is about to re-run — and never one of
    a different spec (execution knobs excluded: re-running at a
    different ``batch_size`` still resumes).
    """
    if cell.snapshot_every < 1 or cell.snapshot_dir is None:
        return None
    from .hashing import cell_fingerprint

    return os.path.join(cell.snapshot_dir, f"{cell_fingerprint(cell)}.snap")


def _snapshot_plan(cell: ExperimentCell) -> Optional[SnapshotPlan]:
    path = cell_snapshot_path(cell)
    if path is None or cell.kind == KIND_OVERHEADS:
        return None
    os.makedirs(cell.snapshot_dir, exist_ok=True)  # type: ignore[arg-type]
    return SnapshotPlan(path=path, every=cell.snapshot_every, resume=True)


def _run_cell_inner(cell: ExperimentCell) -> CellResult:
    plan = _snapshot_plan(cell)
    result = _dispatch_cell(cell, plan)
    if plan is not None:
        # The run completed: its snapshot is spent state, not cache.
        discard_snapshot(plan.path)
    return result


def _dispatch_cell(
    cell: ExperimentCell, snapshots: Optional[SnapshotPlan]
) -> CellResult:
    if cell.kind == KIND_ATTACK:
        return measure_attack_lifetime(
            cell.scheme,
            cell.workload,
            scaled=cell.scaled,
            seed=cell.seed,
            scheme_kwargs=dict(cell.scheme_kwargs),
            attack_kwargs=dict(cell.attack_kwargs),
            batch_size=cell.batch_size,
            soft_errors=cell.soft_errors,
            check_invariants=cell.check_invariants,
            snapshots=snapshots,
        )
    if cell.kind == KIND_STREAM:
        return measure_stream_lifetime(
            cell.scheme,
            _stream_factory(cell),
            scaled=cell.scaled,
            seed=cell.seed,
            scheme_kwargs=dict(cell.scheme_kwargs),
            batch_size=cell.batch_size,
            soft_errors=cell.soft_errors,
            check_invariants=cell.check_invariants,
            snapshots=snapshots,
        )
    if cell.kind == KIND_TRACE:
        return measure_trace_lifetime(
            cell.scheme,
            _benchmark_trace(cell),
            scaled=cell.scaled,
            seed=cell.seed,
            scheme_kwargs=dict(cell.scheme_kwargs),
            batch_size=cell.batch_size,
            soft_errors=cell.soft_errors,
            check_invariants=cell.check_invariants,
            snapshots=snapshots,
        )
    # KIND_OVERHEADS — mirror experiments.fig9.measure_overheads.
    trace = _benchmark_trace(cell)
    array = build_array(cell.scaled)
    scheme = make_scheme(
        cell.scheme, array, seed=cell.seed, **dict(cell.scheme_kwargs)
    )
    driver = StreamDriver(trace.stream(), scheme.logical_pages)
    return measure_scheme_overheads(
        scheme, driver, cell.drive_writes, batch_size=cell.batch_size
    )
