"""Data-comparison-write (DCW) model.

The paper assumes "data comparison write is employed [16]" (Zhou et al.,
ISCA'09): before programming, the old and new data are compared and only
the differing bits are written.  At the page/wear granularity of this
reproduction a page write still costs one endurance unit (the paper counts
page writes), but DCW changes the *energy* of a write, which the energy
model (:mod:`repro.timing.energy`) charges.

The model here is analytic: for data with per-bit flip probability ``f``,
the expected fraction of written bits is ``f`` and the expected per-write
energy scales accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DataComparisonWriteModel:
    """Expected write-cost reduction under data-comparison write.

    Parameters
    ----------
    flip_probability:
        Probability an individual bit differs between old and new data.
        0.5 models uncorrelated random data; real workloads are lower
        (~0.1-0.25 in the DCW paper's measurements).
    """

    flip_probability: float = 0.25

    def __post_init__(self) -> None:
        if not 0.0 <= self.flip_probability <= 1.0:
            raise ValueError("flip probability must be in [0, 1]")
