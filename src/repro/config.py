"""Configuration dataclasses (paper Table 1 defaults).

Every tunable in the reproduction lives in one of the frozen dataclasses
below.  The defaults reproduce the paper's Table 1 setup:

* 32 GB PCM, 4 KB pages, 128 B lines, 4 ranks, 32 banks;
* read/set/reset latency 250/2000/250 cycles at 2 GHz;
* endurance ~ Gauss(1e8, 0.11 * 1e8), tested per page;
* TWL: toss-up interval 32, inter-pair swap interval 128, RNG latency
  4 cycles, control logic 5 cycles, table lookup 10 cycles.

Simulations run on a *scaled* array (fewer pages, lower endurance) so that
run-to-failure completes in seconds; :class:`ScaledArrayConfig` carries the
scaling knobs and `repro.analysis.extrapolate` converts results back to
full-scale years.  See DESIGN.md §2 for why the scaling preserves the
paper's comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from .errors import ConfigError
from .units import GIB, KIB

#: Paper Table 1 / Section 5.1 constants.
PAPER_CAPACITY_BYTES = 32 * GIB
PAPER_PAGE_BYTES = 4 * KIB
PAPER_LINE_BYTES = 128
PAPER_ENDURANCE_MEAN = 100_000_000
PAPER_ENDURANCE_SIGMA_FRACTION = 0.11
PAPER_CLOCK_HZ = 2_000_000_000
PAPER_ATTACK_BANDWIDTH_BYTES = 8 * GIB  # "approximate 8GB/s write bandwidth"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class PCMConfig:
    """Geometry and endurance model of the PCM main memory.

    ``capacity_bytes`` / ``page_bytes`` gives the number of pages; all
    wear-leveling structures in this reproduction operate at page
    granularity, matching the paper ("endurance information is tested and
    stored at the granularity of page-size").
    """

    capacity_bytes: int = PAPER_CAPACITY_BYTES
    page_bytes: int = PAPER_PAGE_BYTES
    line_bytes: int = PAPER_LINE_BYTES
    ranks: int = 4
    banks: int = 32
    endurance_mean: float = PAPER_ENDURANCE_MEAN
    endurance_sigma_fraction: float = PAPER_ENDURANCE_SIGMA_FRACTION

    def __post_init__(self) -> None:
        _require(self.capacity_bytes > 0, "capacity must be positive")
        _require(_power_of_two(self.page_bytes), "page size must be a power of two")
        _require(_power_of_two(self.line_bytes), "line size must be a power of two")
        _require(
            self.line_bytes <= self.page_bytes,
            "line size cannot exceed page size",
        )
        _require(
            self.capacity_bytes % self.page_bytes == 0,
            "capacity must be a whole number of pages",
        )
        _require(self.ranks > 0 and self.banks > 0, "ranks/banks must be positive")
        _require(self.endurance_mean > 0, "endurance mean must be positive")
        _require(
            0.0 <= self.endurance_sigma_fraction < 1.0,
            "endurance sigma fraction must be in [0, 1)",
        )

    @property
    def n_pages(self) -> int:
        """Number of pages in the array."""
        return self.capacity_bytes // self.page_bytes


#: The paper's full-scale memory, used as the reference population for
#: tail-faithful endurance sampling and for full-scale extrapolation.
PAPER_PCM = PCMConfig()


@dataclass(frozen=True)
class ScaledArrayConfig:
    """Parameters of the scaled simulation array.

    ``n_pages`` and ``endurance_mean`` are reduced relative to the paper's
    full-scale memory so run-to-failure finishes quickly.  When
    ``tail_faithful`` is true, the weakest simulated pages are placed at
    the expected extreme order statistics of the *full* ``reference``
    population (default: the paper's 8.4M-page memory), which preserves
    first-failure statistics; see ``repro.pcm.endurance``.
    """

    n_pages: int = 4096
    endurance_mean: float = 10_000.0
    endurance_sigma_fraction: float = PAPER_ENDURANCE_SIGMA_FRACTION
    tail_faithful: bool = True
    reference: PCMConfig = field(default_factory=PCMConfig)
    seed: int = 2017

    def __post_init__(self) -> None:
        _require(self.n_pages >= 2, "need at least two pages")
        _require(self.endurance_mean > 1, "scaled endurance mean must exceed 1")
        _require(
            0.0 <= self.endurance_sigma_fraction < 1.0,
            "endurance sigma fraction must be in [0, 1)",
        )


@dataclass(frozen=True)
class TimingConfig:
    """Latency parameters (cycles at ``clock_hz``), paper Table 1."""

    clock_hz: float = PAPER_CLOCK_HZ
    read_cycles: int = 250
    set_cycles: int = 2000
    reset_cycles: int = 250
    rng_cycles: int = 4
    twl_logic_cycles: int = 5
    table_cycles: int = 10
    bloom_probe_cycles: int = 10
    coldhot_list_cycles: int = 10

    def __post_init__(self) -> None:
        for name in (
            "read_cycles",
            "set_cycles",
            "reset_cycles",
            "rng_cycles",
            "twl_logic_cycles",
            "table_cycles",
            "bloom_probe_cycles",
            "coldhot_list_cycles",
        ):
            _require(getattr(self, name) >= 0, f"{name} must be non-negative")
        _require(self.clock_hz > 0, "clock must be positive")

    @property
    def write_cycles(self) -> int:
        """Worst-case page write latency (SET dominates RESET)."""
        return self.set_cycles


#: Pairing policies for TWL.
PAIRING_STRONG_WEAK = "swp"
PAIRING_ADJACENT = "ap"
PAIRING_RANDOM = "random"
_PAIRINGS = (PAIRING_STRONG_WEAK, PAIRING_ADJACENT, PAIRING_RANDOM)


@dataclass(frozen=True)
class TWLConfig:
    """Toss-up Wear Leveling parameters (paper Section 4, Table 1)."""

    toss_up_interval: int = 32
    inter_pair_swap_interval: int = 128
    pairing: str = PAIRING_STRONG_WEAK
    rng_bits: int = 8
    use_remaining_endurance: bool = False
    write_counter_bits: int = 7
    #: Keep physical strong-weak frame pairs intact across inter-pair
    #: swaps by rebinding the SWPT (see DESIGN.md §4); turning this off
    #: lets inter-pair swaps gradually randomize pair composition.
    maintain_physical_pairs: bool = True
    #: Re-run the toss-up on the first write after an inter-pair swap
    #: relocates a page, so the endurance-proportional arrangement is
    #: restored immediately instead of after up to a full interval.
    toss_on_relocation: bool = True

    def __post_init__(self) -> None:
        _require(self.toss_up_interval >= 1, "toss-up interval must be >= 1")
        _require(
            self.inter_pair_swap_interval >= 1,
            "inter-pair swap interval must be >= 1",
        )
        _require(self.pairing in _PAIRINGS, f"pairing must be one of {_PAIRINGS}")
        _require(1 <= self.rng_bits <= 32, "rng_bits must be in [1, 32]")
        _require(
            self.toss_up_interval < (1 << self.write_counter_bits),
            "toss-up interval must fit in the write counter",
        )

    def with_pairing(self, pairing: str) -> "TWLConfig":
        """Copy of this config with a different pairing policy."""
        return replace(self, pairing=pairing)

    def with_interval(self, toss_up_interval: int) -> "TWLConfig":
        """Copy of this config with a different toss-up interval."""
        return replace(self, toss_up_interval=toss_up_interval)


@dataclass(frozen=True)
class SecurityRefreshConfig:
    """Security Refresh [Seong et al., ISCA'10] parameters.

    ``refresh_interval`` is the number of demand writes between remap
    steps within a region.  The paper fixes the comparable interval at
    128 ("we fix the inter-pair swap interval at 128 [12]").
    """

    refresh_interval: int = 128
    region_pages: Optional[int] = None  # None = single region over the array

    def __post_init__(self) -> None:
        _require(self.refresh_interval >= 1, "refresh interval must be >= 1")
        if self.region_pages is not None:
            _require(
                _power_of_two(self.region_pages),
                "region size must be a power of two pages",
            )


@dataclass(frozen=True)
class StartGapConfig:
    """Start-Gap [Qureshi et al., MICRO'09] parameters."""

    gap_move_interval: int = 128
    randomize: bool = True

    def __post_init__(self) -> None:
        _require(self.gap_move_interval >= 1, "gap move interval must be >= 1")


@dataclass(frozen=True)
class WRLConfig:
    """Wear Rate Leveling [Dong et al., DAC'11] parameters.

    The running phase is ``running_multiplier`` times the prediction phase
    ("running phase is much longer than the prediction phase (e.g. 10X)").
    ``prediction_writes`` counts writes per page on average before a swap
    phase is triggered.
    """

    prediction_writes_per_page: float = 4.0
    running_multiplier: float = 10.0
    swap_block_cycles: int = 4000

    def __post_init__(self) -> None:
        _require(self.prediction_writes_per_page > 0, "prediction length must be > 0")
        _require(self.running_multiplier > 0, "running multiplier must be > 0")
        _require(self.swap_block_cycles >= 0, "swap block cycles must be >= 0")


@dataclass(frozen=True)
class BWLConfig:
    """Bloom-filter based wear leveling [Yun et al., DATE'12] parameters.

    Two counting Bloom filters track hot logical addresses and write-worn
    physical pages; a cold/hot list drives swaps at phase boundaries.
    """

    bloom_bits: int = 8192
    bloom_hashes: int = 3
    prediction_writes_per_page: float = 4.0
    running_multiplier: float = 10.0
    hot_fraction: float = 0.125
    cold_threshold: int = 2
    swap_block_cycles: int = 4000

    def __post_init__(self) -> None:
        _require(_power_of_two(self.bloom_bits), "bloom bits must be a power of two")
        _require(1 <= self.bloom_hashes <= 8, "bloom hash count must be in [1, 8]")
        _require(self.prediction_writes_per_page > 0, "prediction length must be > 0")
        _require(self.running_multiplier > 0, "running multiplier must be > 0")
        _require(0 < self.hot_fraction <= 0.5, "hot fraction must be in (0, 0.5]")
        _require(self.cold_threshold >= 1, "cold threshold must be >= 1")


#: Per-entry protection levels for controller SRAM structures.
PROTECTION_NONE = "none"
PROTECTION_PARITY = "parity"
PROTECTION_SECDED = "secded"
_PROTECTIONS = (PROTECTION_NONE, PROTECTION_PARITY, PROTECTION_SECDED)


@dataclass(frozen=True)
class SoftErrorConfig:
    """Deterministic controller soft-error injection parameters.

    ``rate`` is the per-demand-write probability that one bit flips
    somewhere in the scheme's exposed controller state (remapping
    table, write counters, SWPT/WNT, RNG registers).  Flip instants
    are scheduled on the *absolute demand-write index* with geometric
    inter-arrival gaps drawn from a dedicated ``repro.rng`` stream, so
    a given ``(scheme, workload, seed, rate)`` cell always suffers the
    same flips at the same instants regardless of batch size or worker
    scheduling.

    ``protection`` selects the per-entry SRAM protection modeled by
    :class:`repro.pcm.softerrors.SoftErrorInjector` (and costed by
    :func:`repro.hwcost.scheme_protection_bits`):

    * ``"none"`` — the flip lands and persists silently;
    * ``"parity"`` — the flip is detected on delivery, triggering
      scrub-and-repair from structural redundancy (or the scheme's
      fail-safe when repair is impossible);
    * ``"secded"`` — the flip is corrected transparently (single-error
      correction), leaving the run bit-identical to the unfaulted one.

    ``targets`` optionally restricts injection to named structures from
    the scheme's fault surface (e.g. ``("rt", "wct")``); empty means
    every exposed structure, weighted by its bit count.
    """

    rate: float = 0.0
    seed: int = 0
    targets: Tuple[str, ...] = ()
    protection: str = PROTECTION_NONE

    def __post_init__(self) -> None:
        _require(
            0.0 <= self.rate <= 1.0,
            f"soft-error rate must be in [0, 1], got {self.rate}",
        )
        _require(
            self.protection in _PROTECTIONS,
            f"protection must be one of {_PROTECTIONS}, got {self.protection!r}",
        )
        for target in self.targets:
            _require(
                isinstance(target, str) and bool(target),
                f"targets must be non-empty structure names, got {target!r}",
            )

