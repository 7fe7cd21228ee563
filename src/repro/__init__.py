"""Reproduction of "Toss-up Wear Leveling: Protecting Phase-Change
Memories from Inconsistent Write Patterns" (Zhang & Sun, DAC 2017).

The package provides the paper's entire evaluation stack: the PCM device
model with process variation, the wear-leveling schemes it compares
(NOWL, Start-Gap, Security Refresh, Wear-Rate Leveling, Bloom-filter
WL), the Toss-up Wear Leveling contribution, the four attack workloads
including the inconsistent-write attack, synthetic PARSEC workloads
calibrated to the paper's Table 2, the lifetime simulator, the timing
model behind Figure 9, and the hardware-cost model behind Section 5.4.

Quickstart::

    from repro import measure_attack_lifetime, attack_ideal_lifetime_years

    result = measure_attack_lifetime("twl_swp", "inconsistent")
    years = result.lifetime_fraction * attack_ideal_lifetime_years()
"""

from .version import __version__
from .config import (
    PCMConfig,
    ScaledArrayConfig,
    TimingConfig,
    TWLConfig,
    SecurityRefreshConfig,
    StartGapConfig,
    WRLConfig,
    BWLConfig,
    PAPER_PCM,
)
from .errors import (
    ReproError,
    ConfigError,
    AddressError,
    TableError,
    TraceError,
    SimulationError,
    CellExecutionError,
)
from .pcm import PCMArray, FirstFailure
from .core import TossUpWearLeveling
from .wearlevel import (
    WearLeveler,
    NoWearLeveling,
    StartGap,
    SecurityRefresh,
    WearRateLeveling,
    BloomWearLeveling,
    make_scheme,
    scheme_names,
)
from .attacks import (
    AttackWorkload,
    RepeatWriteAttack,
    RandomWriteAttack,
    ScanWriteAttack,
    InconsistentWriteAttack,
    make_attack,
    attack_names,
)
from .traces import (
    Trace,
    BenchmarkProfile,
    PARSEC_TABLE2,
    get_profile,
    make_benchmark_trace,
)
from .engine import (
    SimulationEngine,
    EngineOutcome,
    EngineObserver,
    BatchSnapshot,
    SchemeOverheadsObserver,
    WearTimelineObserver,
)
from .sim import (
    LifetimeResult,
    run_to_failure,
    AttackDriver,
    StreamDriver,
    build_array,
    measure_attack_lifetime,
    measure_trace_lifetime,
)
from .exec import (
    ExperimentCell,
    attack_cell,
    trace_cell,
    overheads_cell,
    run_cells,
    CellCache,
    cell_fingerprint,
    default_cache_dir,
)
from .analysis import (
    geometric_mean,
    attack_ideal_lifetime_years,
    ideal_lifetime_years,
    PAPER_IDEAL_CALIBRATION,
)
from .hwcost import twl_design_overhead

__all__ = [
    "__version__",
    # configuration
    "PCMConfig",
    "ScaledArrayConfig",
    "TimingConfig",
    "TWLConfig",
    "SecurityRefreshConfig",
    "StartGapConfig",
    "WRLConfig",
    "BWLConfig",
    "PAPER_PCM",
    # errors
    "ReproError",
    "ConfigError",
    "AddressError",
    "TableError",
    "TraceError",
    "SimulationError",
    "CellExecutionError",
    # device
    "PCMArray",
    "FirstFailure",
    # schemes
    "TossUpWearLeveling",
    "WearLeveler",
    "NoWearLeveling",
    "StartGap",
    "SecurityRefresh",
    "WearRateLeveling",
    "BloomWearLeveling",
    "make_scheme",
    "scheme_names",
    # attacks
    "AttackWorkload",
    "RepeatWriteAttack",
    "RandomWriteAttack",
    "ScanWriteAttack",
    "InconsistentWriteAttack",
    "make_attack",
    "attack_names",
    # traces
    "Trace",
    "BenchmarkProfile",
    "PARSEC_TABLE2",
    "get_profile",
    "make_benchmark_trace",
    # engine
    "SimulationEngine",
    "EngineOutcome",
    "EngineObserver",
    "BatchSnapshot",
    "SchemeOverheadsObserver",
    "WearTimelineObserver",
    # simulation
    "LifetimeResult",
    "run_to_failure",
    "AttackDriver",
    "StreamDriver",
    "build_array",
    "measure_attack_lifetime",
    "measure_trace_lifetime",
    # parallel execution + result cache
    "ExperimentCell",
    "attack_cell",
    "trace_cell",
    "overheads_cell",
    "run_cells",
    "CellCache",
    "cell_fingerprint",
    "default_cache_dir",
    # analysis
    "geometric_mean",
    "attack_ideal_lifetime_years",
    "ideal_lifetime_years",
    "PAPER_IDEAL_CALIBRATION",
    # hardware cost
    "twl_design_overhead",
]
