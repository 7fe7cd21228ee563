"""Summary statistics used by the experiments.

The paper reports geometric means ("Gmean") for cross-benchmark
aggregates; :func:`geometric_mean` matches that convention.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values (the paper's "Gmean").

    >>> round(geometric_mean([1.0, 4.0]), 6)
    2.0
    """
    data = np.asarray(list(values), dtype=np.float64)
    if data.size == 0:
        raise ValueError("need at least one value")
    if (data <= 0).any():
        raise ValueError("geometric mean requires positive values")
    return float(np.exp(np.mean(np.log(data))))

