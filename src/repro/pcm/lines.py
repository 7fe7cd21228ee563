"""Sub-page (line-granularity) wear extension.

The paper's Table 1 memory has 128-byte lines inside 4 KB pages but
evaluates wear at page granularity ("the granularity of writes is a
memory page").  Real PCM fails at the cell/line level: a page is dead
as soon as its first line exhausts its endurance.  This module provides
the finer substrate so users can quantify what page-granularity
modeling hides:

* per-line endurance is drawn around the page's tested endurance with
  an *intra-page* variation sigma (process variation has both
  page-to-page and within-page components);
* a page write wears the subset of lines the write actually dirties
  (under data-comparison write, clean lines are skipped);
* the page's effective endurance is the number of page writes until its
  weakest frequently-dirtied line dies — always at or below the tested
  page endurance, which is what :func:`effective_page_endurance`
  quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError


@dataclass(frozen=True)
class LineWearConfig:
    """Parameters of the line-granularity wear model."""

    lines_per_page: int = 32
    intra_page_sigma_fraction: float = 0.05
    #: Probability a given line is dirtied by a page write (DCW skips
    #: clean lines; 1.0 recovers the paper's page-granularity model).
    line_dirty_probability: float = 1.0

    def __post_init__(self) -> None:
        if self.lines_per_page < 1:
            raise ConfigError("need at least one line per page")
        if not 0.0 <= self.intra_page_sigma_fraction < 1.0:
            raise ConfigError("intra-page sigma must be in [0, 1)")
        if not 0.0 < self.line_dirty_probability <= 1.0:
            raise ConfigError("line dirty probability must be in (0, 1]")


class LineWearModel:  # twl: allow(TWL008) reason=transient local of effective_page_endurance; never outlives one call, nothing to resume
    """Line-granularity wear for a single page."""

    def __init__(
        self,
        page_endurance: int,
        config: LineWearConfig,
        rng: np.random.Generator,
    ):
        if page_endurance < 1:
            raise ConfigError("page endurance must be positive")
        self.config = config
        sigma = page_endurance * config.intra_page_sigma_fraction
        endurance = rng.normal(page_endurance, sigma, size=config.lines_per_page)
        self.line_endurance = np.maximum(endurance, 1.0).astype(np.int64)
        self.line_writes = np.zeros(config.lines_per_page, dtype=np.int64)
        self.page_writes = 0
        self._rng = rng

    def write_page(self) -> bool:
        """Apply one page write; True when the page just failed.

        Each line is dirtied independently with the configured
        probability (the DCW comparator skips clean lines).
        """
        self.page_writes += 1
        if self.config.line_dirty_probability >= 1.0:
            self.line_writes += 1
        else:
            dirty = (
                self._rng.random(self.config.lines_per_page)
                < self.config.line_dirty_probability
            )
            self.line_writes[dirty] += 1
        return bool((self.line_writes >= self.line_endurance).any())

    @property
    def failed(self) -> bool:
        """Whether any line has worn out."""
        return bool((self.line_writes >= self.line_endurance).any())


def effective_page_endurance(
    page_endurance: int,
    config: LineWearConfig,
    rng: np.random.Generator,
) -> int:
    """Page writes survived before the first line failure.

    With full-page dirtying this is exactly the weakest line's
    endurance; with partial dirtying clean lines stretch it (run by
    simulation for the stochastic case).
    """
    if config.line_dirty_probability >= 1.0:
        sigma = page_endurance * config.intra_page_sigma_fraction
        endurance = rng.normal(page_endurance, sigma, size=config.lines_per_page)
        return int(max(1, np.maximum(endurance, 1.0).min()))
    model = LineWearModel(page_endurance, config, rng)
    while not model.write_page():
        pass
    return model.page_writes


def derating_factor(
    page_endurance: int,
    config: LineWearConfig,
    rng: np.random.Generator,
    samples: int = 32,
) -> float:
    """Mean ratio of effective to tested page endurance.

    Quantifies how much the paper's page-granularity model overstates
    endurance when within-page variation is present (~1 - 2 sigma for
    32 lines).
    """
    if samples < 1:
        raise ConfigError("need at least one sample")
    values = [
        effective_page_endurance(page_endurance, config, rng) / page_endurance
        for _ in range(samples)
    ]
    return float(np.mean(values))
