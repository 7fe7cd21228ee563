"""Phase-change-memory device model.

The paper's memory is a 32 GB PCM with per-page endurance drawn from a
Gaussian (mean 1e8, sigma 11% of the mean) to model process variation.
This subpackage provides:

* :mod:`repro.pcm.endurance` — endurance sampling, including the
  *tail-faithful* scaled sampling used to run experiments on small arrays
  while preserving full-scale first-failure statistics;
* :mod:`repro.pcm.array` — the wear-tracking page array itself;
* :mod:`repro.pcm.dcw` — the data-comparison-write model;
* :mod:`repro.pcm.faults` — failure records and fault accounting;
* :mod:`repro.pcm.stats` — wear-distribution statistics;
* :mod:`repro.pcm.softerrors` — deterministic soft-error injection into
  controller SRAM structures (fault surfaces, protection modeling).
"""

from .endurance import (
    norm_ppf,
    sample_gaussian_endurance,
    sample_tail_faithful,
    expected_extreme_minimum,
)
from .array import PCMArray
from .dcw import DataComparisonWriteModel
from .faults import FirstFailure
from .stats import gini_coefficient
from .lines import (
    LineWearConfig,
    LineWearModel,
    effective_page_endurance,
    derating_factor,
)
from .softerrors import BitTarget, SoftErrorEvent, SoftErrorInjector

__all__ = [
    "norm_ppf",
    "sample_gaussian_endurance",
    "sample_tail_faithful",
    "expected_extreme_minimum",
    "PCMArray",
    "DataComparisonWriteModel",
    "FirstFailure",
    "gini_coefficient",
    "LineWearConfig",
    "LineWearModel",
    "effective_page_endurance",
    "derating_factor",
    "BitTarget",
    "SoftErrorEvent",
    "SoftErrorInjector",
]
