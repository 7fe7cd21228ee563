"""One-call experiment helpers.

These wrap array construction, scheme/attack instantiation, driver setup
and lifetime estimation so that the benchmark harness, the examples and
the CLI all run experiments through identical code paths.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..attacks.registry import make_attack
from ..config import ScaledArrayConfig, SoftErrorConfig, TimingConfig
from ..pcm.array import PCMArray
from ..pcm.endurance import sample_gaussian_endurance, sample_tail_faithful
from ..rng.streams import make_generator
from ..traces.stream import TraceStream
from ..traces.trace import Trace
from ..wearlevel.registry import make_scheme
from .drivers import AttackDriver, StreamDriver
from ..engine import SnapshotPlan
from .lifetime import DEFAULT_MAX_DEMAND, LifetimeResult, run_to_failure

#: Default scale for experiments.  The endurance-to-footprint ratio
#: matters: at full scale mean endurance / page count = 1e8 / 8.4M ≈ 12,
#: and prediction-phase lengths, refresh rounds etc. all scale with the
#: page count, so preserving the ratio keeps every scheme's
#: phases-per-page-lifetime equal to the paper's.  1024 pages at mean
#: endurance 12288 holds that ratio while keeping exact run-to-failure
#: in the seconds range per scheme/workload cell.
DEFAULT_SCALED = ScaledArrayConfig(n_pages=1024, endurance_mean=12288.0)


def build_array(scaled: ScaledArrayConfig = DEFAULT_SCALED) -> PCMArray:
    """Sample a fresh scaled PCM array per the scaling configuration."""
    rng = make_generator(scaled.seed, "endurance")
    if scaled.tail_faithful:
        endurance = sample_tail_faithful(
            scaled.n_pages,
            scaled.reference.n_pages,
            scaled.endurance_mean,
            scaled.endurance_sigma_fraction,
            rng,
        )
    else:
        endurance = sample_gaussian_endurance(
            scaled.n_pages,
            scaled.endurance_mean,
            scaled.endurance_sigma_fraction,
            rng,
        )
    return PCMArray(endurance)


def measure_attack_lifetime(
    scheme_name: str,
    attack_name: str,
    scaled: ScaledArrayConfig = DEFAULT_SCALED,
    seed: int = 2017,
    timing: TimingConfig = TimingConfig(),
    scheme_kwargs: Optional[dict] = None,
    attack_kwargs: Optional[dict] = None,
    batch_size: int = 1,
    soft_errors: Optional[SoftErrorConfig] = None,
    check_invariants: bool = False,
    snapshots: Optional[SnapshotPlan] = None,
) -> LifetimeResult:
    """Lifetime of ``scheme_name`` under ``attack_name`` at scaled size.

    ``batch_size`` selects the engine's batched write protocol; results
    are bit-identical to the default per-write path for every
    registered scheme and attack, adaptive ones included.  ``soft_errors`` /
    ``check_invariants`` enable controller soft-error injection and the
    runtime invariant checker.  ``snapshots`` arms mid-run checkpointing
    and resume (sub-cell recovery; see
    :func:`repro.sim.lifetime.run_to_failure`).
    """
    array = build_array(scaled)
    scheme = make_scheme(scheme_name, array, seed=seed, **(scheme_kwargs or {}))
    attack = make_attack(
        attack_name, scheme.logical_pages, seed=seed, **(attack_kwargs or {})
    )
    driver = AttackDriver(attack, timing=timing)
    return run_to_failure(
        scheme,
        driver,
        batch_size=batch_size,
        soft_errors=soft_errors,
        check_invariants=check_invariants,
        snapshots=snapshots,
    )


def measure_trace_lifetime(
    scheme_name: str,
    trace: Trace,
    scaled: ScaledArrayConfig = DEFAULT_SCALED,
    seed: int = 2017,
    scheme_kwargs: Optional[dict] = None,
    batch_size: int = 1,
    soft_errors: Optional[SoftErrorConfig] = None,
    check_invariants: bool = False,
    snapshots: Optional[SnapshotPlan] = None,
) -> LifetimeResult:
    """Lifetime of ``scheme_name`` looping ``trace`` at scaled size.

    ``batch_size`` selects the engine's batched write protocol; results
    are bit-identical to the default per-write path.  ``soft_errors``
    and ``check_invariants`` behave as in
    :func:`measure_attack_lifetime`, and so does ``snapshots``.
    """
    array = build_array(scaled)
    scheme = make_scheme(scheme_name, array, seed=seed, **(scheme_kwargs or {}))
    driver = StreamDriver(trace.stream(), scheme.logical_pages)
    return run_to_failure(
        scheme,
        driver,
        batch_size=batch_size,
        soft_errors=soft_errors,
        check_invariants=check_invariants,
        snapshots=snapshots,
    )


def measure_stream_lifetime(
    scheme_name: str,
    stream_factory: Callable[[int], TraceStream],
    scaled: ScaledArrayConfig = DEFAULT_SCALED,
    seed: int = 2017,
    scheme_kwargs: Optional[dict] = None,
    batch_size: int = 1,
    max_demand: int = DEFAULT_MAX_DEMAND,
    require_failure: bool = True,
    soft_errors: Optional[SoftErrorConfig] = None,
    check_invariants: bool = False,
    snapshots: Optional[SnapshotPlan] = None,
) -> LifetimeResult:
    """Lifetime of ``scheme_name`` under a streamed workload.

    ``stream_factory`` receives the scheme's logical page count and
    returns the :class:`~repro.traces.stream.TraceStream` to drive —
    built *after* the scheme so generators (the FTL workload) size
    themselves to the exposed logical space (Start-Gap reserves a
    frame).  The stream is looped to failure through
    :class:`~repro.sim.drivers.StreamDriver` at constant memory;
    ``batch_size`` and the stream's chunk size are execution knobs —
    results are bit-identical to a materialized
    :func:`measure_trace_lifetime` run of the same request sequence.
    """
    array = build_array(scaled)
    scheme = make_scheme(scheme_name, array, seed=seed, **(scheme_kwargs or {}))
    stream = stream_factory(scheme.logical_pages)
    driver = StreamDriver(stream, scheme.logical_pages)
    try:
        return run_to_failure(
            scheme,
            driver,
            max_demand=max_demand,
            require_failure=require_failure,
            batch_size=batch_size,
            soft_errors=soft_errors,
            check_invariants=check_invariants,
            snapshots=snapshots,
        )
    finally:
        stream.close()

