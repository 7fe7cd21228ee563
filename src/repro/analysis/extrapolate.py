"""Convert scaled-simulation results to full-scale lifetimes.

Two regimes (DESIGN.md §2):

* **Distribution-driven workloads** (benchmarks; repeat/random/scan
  attacks through a randomizing scheme): the *normalized* lifetime
  fraction ``demand_writes / (n_pages * endurance_mean)`` is
  scale-invariant — tail-faithful endurance sampling pins the weakest
  pages to full-population statistics and trace concentration is
  parameterized per-page-count.  Full-scale years are simply
  ``fraction * ideal_years(bandwidth)``.

* **Targeted attacks** (the inconsistent attack on a prediction-based
  scheme; repeat on NOWL): the victim's traffic share is
  attacker-controlled and independent of memory size, so the *absolute*
  time to failure is size-independent while the normalized fraction
  shrinks as 1/n_pages.  Converting a scaled run therefore multiplies by
  the scale ratio: seconds ≈ fraction_sim * n_sim/n_full * ideal_seconds
  (with calibration=1, since the mechanism involves no capacity
  bookkeeping).
"""

from __future__ import annotations

from ..config import PCMConfig, PAPER_PCM


def targeted_attack_full_scale_seconds(
    lifetime_fraction: float,
    n_pages_sim: int,
    bandwidth_bytes_per_second: float,
    pcm: PCMConfig = PAPER_PCM,
) -> float:
    """Full-scale seconds-to-failure for a victim-share-driven attack.

    ``lifetime_fraction`` comes from the scaled run; at full scale the
    attack needs the same number of *victim* writes, so absolute time is
    recovered by undoing the 1/n_pages dependence of the fraction.
    """
    if lifetime_fraction < 0:
        raise ValueError("lifetime fraction must be non-negative")
    if n_pages_sim < 1:
        raise ValueError("n_pages_sim must be positive")
    # fraction_sim = victim_writes / (n_sim * E_mean); absolute time is
    # victim_writes * page_bytes / bandwidth after endurance rescaling.
    victim_writes_full = lifetime_fraction * n_pages_sim * pcm.endurance_mean
    return victim_writes_full * pcm.page_bytes / bandwidth_bytes_per_second
