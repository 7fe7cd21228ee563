"""Synthetic trace generators.

The central generator is the Zipf trace: page popularity follows
``w_k ~ 1 / k**alpha`` over a shuffled page ordering.  Wear-leveling
outcomes depend on the *write concentration* — how many times more often
the hottest page is written than the array average — so
:func:`zipf_alpha_for_concentration` inverts the Zipf exponent from a
target concentration.  That is what lets Table 2's per-benchmark
"ideal lifetime / lifetime without wear leveling" ratio pin down the
synthetic workload at any array scale (DESIGN.md §2).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import TraceError
from .request import OP_READ, OP_WRITE
from .trace import Trace


def zipf_weights(n_pages: int, alpha: float) -> np.ndarray:
    """Normalized Zipf popularity weights over ``n_pages`` ranks.

    ``alpha = 0`` is uniform; larger alpha concentrates writes on the
    top-ranked pages.
    """
    if n_pages < 1:
        raise TraceError("need at least one page")
    if alpha < 0:
        raise TraceError(f"alpha must be non-negative, got {alpha}")
    ranks = np.arange(1, n_pages + 1, dtype=np.float64)
    weights = ranks ** (-alpha)
    return weights / weights.sum()


def concentration_of_alpha(n_pages: int, alpha: float) -> float:
    """Write concentration of a Zipf(alpha) workload.

    Concentration = (hottest page's write share) * n_pages; 1.0 means
    uniform.  This is exactly the ratio ideal-lifetime / no-WL-lifetime
    for a PV-free array, because no-WL lifetime is set by the hottest
    page while ideal lifetime spreads writes evenly.
    """
    weights = zipf_weights(n_pages, alpha)
    return float(weights[0] * n_pages)


def zipf_alpha_for_concentration(
    n_pages: int,
    concentration: float,
    tolerance: float = 1e-6,
) -> float:
    """Invert :func:`concentration_of_alpha` by bisection.

    Raises if the concentration is unreachable (it is bounded above by
    ``n_pages``, where all writes hit one page).
    """
    if concentration < 1.0:
        raise TraceError(
            f"concentration must be >= 1 (uniform), got {concentration}"
        )
    if concentration >= n_pages:
        raise TraceError(
            f"concentration {concentration} unreachable with {n_pages} pages"
        )
    if concentration == 1.0:
        return 0.0
    low, high = 0.0, 1.0
    # Grow the bracket until it encloses the target.
    while concentration_of_alpha(n_pages, high) < concentration:
        high *= 2
        if high > 64:
            raise TraceError(
                f"could not bracket concentration {concentration}"
            )
    while high - low > tolerance:
        middle = (low + high) / 2
        if concentration_of_alpha(n_pages, middle) < concentration:
            low = middle
        else:
            high = middle
    return (low + high) / 2


def _interleave_reads(
    write_pages: np.ndarray,
    write_fraction: float,
    rng: np.random.Generator,
) -> tuple:
    """Mix read requests (to the same popularity ordering) into a write stream."""
    if not 0.0 < write_fraction <= 1.0:
        raise TraceError(f"write fraction must be in (0, 1], got {write_fraction}")
    n_writes = write_pages.size
    if write_fraction == 1.0:
        ops = np.full(n_writes, OP_WRITE, dtype=np.uint8)
        return ops, write_pages
    n_reads = int(round(n_writes * (1.0 - write_fraction) / write_fraction))
    read_pages = rng.choice(write_pages, size=n_reads, replace=True)
    ops = np.concatenate(
        [
            np.full(n_writes, OP_WRITE, dtype=np.uint8),
            np.full(n_reads, OP_READ, dtype=np.uint8),
        ]
    )
    pages = np.concatenate([write_pages, read_pages])
    order = rng.permutation(ops.size)
    return ops[order], pages[order]


def make_zipf_trace(
    n_pages: int,
    n_writes: int,
    alpha: float,
    rng: np.random.Generator,
    name: str = "zipf",
    write_fraction: float = 1.0,
    write_bandwidth_mbps: Optional[float] = None,
) -> Trace:
    """Zipf-popularity trace over a shuffled page ordering.

    The popularity ranking is assigned to random page addresses so hot
    pages are scattered across the physical layout, as in real workloads.
    """
    if n_writes < 1:
        raise TraceError("need at least one write")
    weights = zipf_weights(n_pages, alpha)
    ordering = rng.permutation(n_pages)
    ranks = rng.choice(n_pages, size=n_writes, p=weights)
    write_pages = ordering[ranks]
    ops, pages = _interleave_reads(write_pages, write_fraction, rng)
    return Trace(
        ops, pages, name=name, write_bandwidth_mbps=write_bandwidth_mbps
    )

