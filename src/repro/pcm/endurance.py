"""Per-page endurance sampling under process variation.

The paper assumes page endurance ~ Gauss(1e8, 0.11 * 1e8) (Section 5.1).
Device lifetime at first page failure is governed by the *extreme order
statistics* of that distribution over all 8.4M pages.  Because the
reproduction runs on arrays thousands of times smaller, plainly sampling a
small array would make the weakest page far stronger (relative to the
mean) than at full scale, which would inflate every scheme's normalized
lifetime.

``sample_tail_faithful`` fixes this: the ``tail_count`` weakest (and, for
symmetry, strongest) pages of the scaled array are placed at the expected
extreme order statistics of the full reference population (Blom's
approximation), and the body of the array is a stratified sample of the
distribution.  First-failure behaviour then matches the paper's scale;
see ``tests/test_endurance.py`` for the validation.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..errors import ConfigError

#: Endurance is clipped below at this fraction of the mean so no page has
#: zero or negative endurance (the Gaussian has unbounded support).
ENDURANCE_FLOOR_FRACTION = 0.01


def norm_ppf(p: float) -> float:
    """Inverse CDF of the standard normal distribution.

    Acklam's rational approximation (relative error < 1.15e-9 over the
    full open interval), implemented locally so the core library depends
    only on numpy.  Validated against ``scipy.stats.norm.ppf`` in tests.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")

    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)

    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    if p > 1 - p_low:
        q = math.sqrt(-2 * math.log(1 - p))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)

    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1)


def _blom_quantile(rank: int, population: int) -> float:
    """Blom's plotting position for the ``rank``-th smallest of ``population``."""
    return (rank - 0.375) / (population + 0.25)


def _clip_floor(values: np.ndarray, mean: float) -> np.ndarray:
    floor = max(1.0, ENDURANCE_FLOOR_FRACTION * mean)
    return np.maximum(values, floor)


def sample_gaussian_endurance(
    n_pages: int,
    mean: float,
    sigma_fraction: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Plain i.i.d. Gaussian endurance sample, floored away from zero.

    Returns an ``int64`` array of length ``n_pages``.
    """
    if n_pages < 1:
        raise ConfigError("need at least one page")
    sigma = mean * sigma_fraction
    values = rng.normal(mean, sigma, size=n_pages)
    return _clip_floor(values, mean).astype(np.int64)


def sample_tail_faithful(
    n_pages: int,
    reference_population: int,
    mean: float,
    sigma_fraction: float,
    rng: np.random.Generator,
    tail_count: Optional[int] = None,
) -> np.ndarray:
    """Endurance sample whose extremes match a much larger population.

    Parameters
    ----------
    n_pages:
        Size of the scaled array being simulated.
    reference_population:
        Size of the full-scale memory whose extreme statistics should be
        preserved (the paper's 8.4M pages).
    mean, sigma_fraction:
        Gaussian endurance parameters.
    rng:
        Source of randomness for page placement (the values themselves are
        deterministic quantiles; only their positions are shuffled).
    tail_count:
        How many expected extreme order statistics to pin at each end.
        Defaults to ``max(4, n_pages // 64)``.

    Returns an ``int64`` array of length ``n_pages`` in random page order.
    """
    if n_pages < 8:
        raise ConfigError(f"tail-faithful sampling needs >= 8 pages, got {n_pages}")
    if reference_population < n_pages:
        raise ConfigError(
            "reference population must be at least as large as the array "
            f"({reference_population} < {n_pages})"
        )
    if tail_count is None:
        tail_count = max(4, n_pages // 64)
    if 2 * tail_count >= n_pages:
        raise ConfigError(
            f"tail_count {tail_count} too large for {n_pages} pages"
        )

    sigma = mean * sigma_fraction

    weak_tail = np.array(
        [
            mean + sigma * norm_ppf(_blom_quantile(k, reference_population))
            for k in range(1, tail_count + 1)
        ]
    )
    strong_tail = np.array(
        [
            mean - sigma * norm_ppf(_blom_quantile(k, reference_population))
            for k in range(1, tail_count + 1)
        ]
    )

    body_count = n_pages - 2 * tail_count
    # Stratified body: midpoints of equal-probability strata spanning the
    # region between the pinned tails.
    lo = _blom_quantile(tail_count + 1, reference_population)
    probabilities = lo + (np.arange(body_count) + 0.5) / body_count * (1 - 2 * lo)
    body = np.array([mean + sigma * norm_ppf(float(p)) for p in probabilities])

    values = np.concatenate([weak_tail, body, strong_tail])
    values = _clip_floor(values, mean)
    rng.shuffle(values)
    return values.astype(np.int64)
