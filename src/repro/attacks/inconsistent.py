"""The inconsistent-write attack (paper Section 3.2).

The attack exploits the consistency assumption of prediction-swap-running
wear leveling:

* **Step 1** — write a set of target pages with a monotonically
  increasing intensity staircase (``W_1 < W_k < W_N``), misleading the
  predictor into ranking the low-index targets cold and the high-index
  targets hot, while watching response times for the blocking swap phase.
* **Step 2** — the moment a swap is detected, *reverse* the staircase:
  the pages the predictor placed on the weakest (or most-worn) frames
  are now hammered hardest.  Repeat, flipping at every detected swap.

Three practical details, all within the paper's threat model (the
attacker issues arbitrary address streams and measures response times):

* **phase pacing** — one full staircase pass should span one prediction
  phase, exactly as the paper's two-step loop assumes ("Write LA_i for
  W_i times ... detect the start and end of swap phase").  The attacker
  learns the phase length online from the spacing of detected swaps and
  rescales its staircase after every flip.
* **background scan** — each pass also touches every non-target page
  once, so no page looks *less* written than the attacker's designated
  victims; defenses that refuse to displace never-written pages are
  thereby neutralized.  The victims are written *last* in the pass, so
  they are the freshest entries in any recency-based cold structure.
* **small target set** — the hammered page's traffic share after a
  reversal is independent of memory size, which is what lets the attack
  kill a full-scale 32 GB PCM in minutes once its victim sits on a weak
  frame.

When no swap is observable for ``patience`` writes (a swap phase that
moved no data produces no latency spike), the attacker flips blind —
"keep detecting" degrades to probing.

Between two flips the stream is a fixed slice of the current pass, so a
batched run serves it in segments (:meth:`InconsistentWriteAttack.segment`):
each ends at the patience bound or at the first response the detector
would flag, and is committed in one :meth:`observe_responses` call.
"""

from __future__ import annotations

import functools
from typing import Optional, Tuple

import numpy as np

from ..errors import ConfigError, SimulationError
from .base import AttackWorkload
from .detector import SwapDetector

#: Exponential-moving-average factor for the online phase-length estimate.
_PERIOD_EMA = 0.5

#: Fewest writes a segment plans ahead (see ``planned_writes``).
_MIN_PLAN = 64


def _staircase(count: int, scale: float, reversed_: bool) -> np.ndarray:
    """Per-target write counts: ranks 1..count times ``scale``, at least
    one each; ``reversed_`` hammers the low-index end instead."""
    # rint rounds half to even, as round() does.
    ranks = np.arange(1, count + 1, dtype=np.float64)
    weights = np.maximum(1, np.rint(ranks * scale)).astype(np.int64)
    return weights[::-1] if reversed_ else weights


@functools.lru_cache(maxsize=8)
def _attack_pass(
    n_pages: int,
    n_targets: int,
    victim_count: int,
    background_scan: bool,
    reversed_: bool,
    scale: float,
) -> np.ndarray:
    """One pass of the attack write sequence, read-only.

    Order within the pass: hot decoy bursts first (heaviest first),
    then the background scan over non-target pages, then the
    designated victims — written last so they are the most recent
    cold observations the defense holds.  Shared by every attack in the
    process: where the scale stays 1 (TWL) a flip only alternates
    between the two directions; where the phase estimate keeps moving,
    each flip builds a new pass and the small cache bounds memory.
    """
    weights = _staircase(n_targets, scale, reversed_)
    order = np.argsort(-weights, kind="stable")
    victims = order[-victim_count:][::-1]
    decoys = order[: n_targets - victim_count]
    parts = [np.repeat(decoys, weights[decoys])]
    if background_scan:
        parts.append(np.arange(n_targets, n_pages))
    parts.append(np.repeat(victims, weights[victims]))
    schedule = np.concatenate(parts).astype(np.int64)
    schedule.setflags(write=False)
    return schedule


class InconsistentWriteAttack(AttackWorkload):
    """Distribution-reversing attack against prediction-based schemes."""

    name = "inconsistent"

    def __init__(
        self,
        n_pages: int,
        n_targets: Optional[int] = None,
        detector: Optional[SwapDetector] = None,
        patience: int = 20_000,
        initial_period: Optional[int] = None,
        background_scan: bool = True,
        victim_count: Optional[int] = None,
    ):
        super().__init__(n_pages)
        if n_targets is None:
            n_targets = min(64, n_pages)
        if not 1 <= n_targets <= n_pages:
            raise ConfigError(
                f"n_targets must be in [1, {n_pages}], got {n_targets}"
            )
        if patience < 1:
            raise ConfigError(f"patience must be positive, got {patience}")
        if victim_count is None:
            victim_count = max(1, n_targets // 8)
        if not 1 <= victim_count <= n_targets:
            raise ConfigError(
                f"victim_count must be in [1, {n_targets}], got {victim_count}"
            )
        self.n_targets = n_targets
        self.victim_count = victim_count
        self.background_scan = background_scan
        self.detector = detector if detector is not None else SwapDetector()
        self.patience = patience
        self.reversals = 0
        self._reversed = False
        self._period_estimate = float(initial_period or 8 * n_targets)
        self._writes_since_flip = 0
        self._flip_pending = False
        self._pass_schedule = np.zeros(0, dtype=np.int64)
        self._build_pass()
        self._cursor = 0

    # ------------------------------------------------------------------
    # Pass construction
    # ------------------------------------------------------------------
    def _scale(self) -> float:
        """Rank multiplier that makes one pass (staircase plus optional
        scan) span roughly the estimated prediction phase."""
        count = self.n_targets
        budget = self._period_estimate
        if self.background_scan:
            budget -= self.n_pages - count
        rank_sum = count * (count + 1) / 2
        return max(1.0, budget / rank_sum)

    def _staircase_weights(self) -> np.ndarray:
        """Per-target write counts, scaled to fill the estimated phase;
        the direction flag decides which end is hammered."""
        return _staircase(self.n_targets, self._scale(), self._reversed)

    def _build_pass(self) -> None:
        """Take the pass for the current direction and phase estimate."""
        self._pass_schedule = _attack_pass(
            self.n_pages,
            self.n_targets,
            self.victim_count,
            self.background_scan,
            self._reversed,
            self._scale(),
        )

    def victim_share(self) -> float:
        """Traffic share of the most-hammered page after a reversal.

        Scale-invariant given a fixed period/footprint ratio; used by
        the full-scale extrapolation of the Figure-6 "worn out quickly"
        entries.
        """
        weights = self._staircase_weights()
        return int(weights.max()) / len(self._pass_schedule)

    @property
    def period_estimate(self) -> float:
        """Current online estimate of the victim scheme's phase length."""
        return self._period_estimate

    # ------------------------------------------------------------------
    # Mid-run persistence
    # ------------------------------------------------------------------
    def _snapshot_state(self) -> dict:
        return {
            "cursor": self._cursor,
            "detector": self.detector.snapshot(),
            "flip_pending": self._flip_pending,
            "pass_schedule": self._pass_schedule.copy(),
            "period_estimate": self._period_estimate,
            "reversals": self.reversals,
            "reversed": self._reversed,
            "writes_since_flip": self._writes_since_flip,
        }

    def _restore_state(self, state: dict) -> None:
        # The pass schedule is stored rather than rebuilt: it was
        # materialized from the period estimate *at flip time*, which a
        # later EMA update has since moved past.  Older snapshots store
        # it as a list of ints.
        self._cursor = int(state["cursor"])
        self.detector.restore(state["detector"])
        self._flip_pending = bool(state["flip_pending"])
        self._pass_schedule = np.array(state["pass_schedule"], dtype=np.int64)
        self._period_estimate = float(state["period_estimate"])
        self.reversals = int(state["reversals"])
        self._reversed = bool(state["reversed"])
        self._writes_since_flip = int(state["writes_since_flip"])

    # ------------------------------------------------------------------
    # Write stream
    # ------------------------------------------------------------------
    def _apply_pending_flip(self) -> None:
        """Reverse the staircase if a flip is due before the next write."""
        if self._flip_pending:
            self._flip_pending = False
            self._reversed = not self._reversed
            self.reversals += 1
            self._build_pass()
            self._cursor = 0

    def next_write(self) -> int:
        self._apply_pending_flip()
        page = int(self._pass_schedule[self._cursor])
        self._cursor += 1
        if self._cursor == len(self._pass_schedule):
            self._cursor = 0
        return self._emit(page)

    def observe_response(self, latency_cycles: float) -> None:
        """Flip on a detected swap; refine the phase-length estimate.

        Falls back to a blind flip when nothing observable happened for
        ``patience`` writes.
        """
        self._writes_since_flip += 1
        detected = self.detector.observe(latency_cycles)
        if not detected and self._writes_since_flip < self.patience:
            return
        if detected:
            self._period_estimate = (
                (1 - _PERIOD_EMA) * self._period_estimate
                + _PERIOD_EMA * self._writes_since_flip
            )
        self._flip_pending = True
        self._writes_since_flip = 0

    # ------------------------------------------------------------------
    # Segment protocol
    # ------------------------------------------------------------------
    def segment(self, unit_latency: float) -> Tuple[int, Optional[int]]:
        """The patience bound, cut short by the detector's own horizon;
        the stop count is the detector's."""
        horizon, stop_count = self.detector.segment(unit_latency)
        remaining = self.patience - self._writes_since_flip
        return (remaining if horizon is None else min(horizon, remaining)), stop_count

    def planned_writes(self, limit: int) -> np.ndarray:
        """The next pass entries, wrapping at the pass end: at most
        ``limit``, and at most four times the phase-length estimate or
        the writes since the last flip, whichever is larger.

        A flip is expected about one phase-length estimate after the
        last, so a much longer plan is mostly addresses the stop never
        serves, which the per-write loop would still convert; a segment
        that outruns the estimate gets plans that double.  A shorter
        plan only splits a segment over more engine steps.  A pending
        flip is due before the next write whatever its address, so it
        is applied here.
        """
        if limit < 0:
            raise ValueError("batch size must be non-negative")
        self._apply_pending_flip()
        limit = min(
            limit, max(_MIN_PLAN, 4 * int(self._period_estimate), self._writes_since_flip)
        )
        schedule = self._pass_schedule
        stop = self._cursor + limit
        if stop <= schedule.size:
            return schedule[self._cursor : stop]
        return np.take(schedule, np.arange(self._cursor, stop), mode="wrap")

    def observe_responses(self, latencies: np.ndarray) -> None:
        """Advance the cursor past the served writes and feed their
        responses to the detector; only the last may flip the pass."""
        self._apply_pending_flip()
        flags = self.detector.observe_batch(latencies)
        served = int(flags.size)
        if served == 0:
            return
        since = self._writes_since_flip + served
        # The write that ends the pass: the first flagged one, or the
        # one that exhausts patience.
        flagged = np.flatnonzero(flags)
        end = self.patience - self._writes_since_flip - 1
        if flagged.size and flagged[0] < end:
            end = int(flagged[0])
        if end < served - 1:
            raise SimulationError(
                f"{served} responses overran the segment: the pass flips "
                f"after response {end + 1}"
            )
        self.writes_emitted += served
        self._cursor = (self._cursor + served) % len(self._pass_schedule)
        if end > served - 1:
            self._writes_since_flip = since
            return
        if flags[-1]:
            self._period_estimate = (
                (1 - _PERIOD_EMA) * self._period_estimate + _PERIOD_EMA * since
            )
        self._flip_pending = True
        self._writes_since_flip = 0
