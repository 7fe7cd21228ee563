"""Trace-driven PCM lifetime simulation.

* :mod:`repro.sim.drivers` — workload drivers: address sources for
  streams, traces and attacks (adaptive attacks one segment at a
  time);
* :mod:`repro.sim.lifetime` — exact run-to-failure and the
  :class:`LifetimeResult` record;
* :mod:`repro.sim.runner` — one-call experiment helpers;
* :mod:`repro.sim.metrics` — scheme overhead measurement for the timing
  model.
"""

from .drivers import WorkloadDriver, AttackDriver, StreamDriver
from .lifetime import LifetimeResult, run_to_failure
from .runner import (
    build_array,
    measure_attack_lifetime,
    measure_stream_lifetime,
    measure_trace_lifetime,
    DEFAULT_SCALED,
)
from .metrics import measure_scheme_overheads, SchemeOverheads
from .replicates import (
    ReplicatedLifetime,
    replicate_attack_lifetime,
    replicate_trace_lifetime,
)

__all__ = [
    "WorkloadDriver",
    "AttackDriver",
    "StreamDriver",
    "LifetimeResult",
    "run_to_failure",
    "build_array",
    "measure_attack_lifetime",
    "measure_stream_lifetime",
    "measure_trace_lifetime",
    "DEFAULT_SCALED",
    "measure_scheme_overheads",
    "SchemeOverheads",
    "ReplicatedLifetime",
    "replicate_attack_lifetime",
    "replicate_trace_lifetime",
]
