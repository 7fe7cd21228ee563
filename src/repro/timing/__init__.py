"""Timing and performance models.

* :mod:`repro.timing.latency` — per-request latency accounting from the
  Table-1 cycle parameters, including each scheme's control-path cost;
* :mod:`repro.timing.perf_model` — the analytic normalized-execution-time
  model behind the Figure-9 reproduction.
"""

from .latency import control_path_cycles
from .perf_model import PerfModelConfig, normalized_execution_time
from .energy import (
    EnergyBreakdown,
    EnergyModelConfig,
    energy_per_demand_write,
    nowl_baseline,
)

__all__ = [
    "control_path_cycles",
    "PerfModelConfig",
    "normalized_execution_time",
    "EnergyBreakdown",
    "EnergyModelConfig",
    "energy_per_demand_write",
    "nowl_baseline",
]
