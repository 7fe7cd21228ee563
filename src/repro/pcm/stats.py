"""Wear-distribution statistics for a PCM array.

These metrics quantify *how well* a scheme leveled wear, beyond the single
lifetime number: the Gini coefficient of wear fractions (0 = perfectly
even wear relative to endurance), utilization at failure, and summary
percentiles.  They back the ablation benchmarks and several tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def gini_coefficient(values: np.ndarray) -> float:
    """Gini coefficient of a non-negative sample (0 = equal, ->1 = skewed).

    >>> round(gini_coefficient(np.array([1.0, 1.0, 1.0])), 6)
    0.0
    """
    data = np.asarray(values, dtype=np.float64)
    if data.ndim != 1 or data.size == 0:
        raise ValueError("need a non-empty 1-D sample")
    if (data < 0).any():
        raise ValueError("values must be non-negative")
    total = data.sum()
    if total == 0:
        return 0.0
    sorted_data = np.sort(data)
    n = data.size
    index = np.arange(1, n + 1)
    return float((2 * (index * sorted_data).sum()) / (n * total) - (n + 1) / n)


@dataclass(frozen=True)
class WearStatistics:
    """Snapshot of an array's wear distribution."""

    total_writes: int
    utilization: float
    wear_gini: float
    max_wear_fraction: float
    mean_wear_fraction: float
    p99_wear_fraction: float
