"""Response-time swap detection (the attacker's side channel).

"Memory swaps will block all memory requests to ensure memory integrity,
which leads to an increase in memory response time" (Section 3.2,
footnote).  The detector learns a baseline response latency online and
flags any request whose latency exceeds the baseline by a configurable
factor — it never sees scheme internals.

The detector is also the one owner of its threshold for batched runs:
:meth:`SwapDetector.segment` says how many upcoming responses the flag
rule stays fixed for and which latency multiple it flags, and
:meth:`SwapDetector.observe_batch` records a run of responses exactly
as one :meth:`SwapDetector.observe` call per response would.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from ..errors import ConfigError


class SwapDetector:
    """Online threshold detector over response latencies."""

    def __init__(self, threshold_factor: float = 1.5, warmup: int = 8):
        if threshold_factor <= 1.0:
            raise ConfigError("threshold factor must exceed 1.0")
        if warmup < 1:
            raise ConfigError("warmup must be at least one sample")
        self.threshold_factor = threshold_factor
        self.warmup = warmup
        self._samples = 0
        self._baseline = 0.0
        self.detections = 0

    def snapshot(self) -> dict:
        """Learned baseline and counters (mid-run persistence)."""
        return {
            "baseline": self._baseline,
            "detections": self.detections,
            "samples": self._samples,
        }

    def restore(self, state: dict) -> None:
        """Restore a state captured by :meth:`snapshot`."""
        self._baseline = float(state["baseline"])
        self.detections = int(state["detections"])
        self._samples = int(state["samples"])

    def observe(self, latency_cycles: float) -> bool:
        """Record one response time; True when a swap is detected.

        The baseline tracks the *minimum* observed latency: plain writes
        dominate the stream, so the smallest latencies are unblocked
        requests, and anything threshold_factor above them was blocked.
        """
        if latency_cycles <= 0:
            raise ValueError("latency must be positive")
        if self._samples < self.warmup:
            self._samples += 1
            if self._baseline == 0.0 or latency_cycles < self._baseline:
                self._baseline = latency_cycles
            return False
        if latency_cycles < self._baseline:
            self._baseline = latency_cycles
            return False
        if latency_cycles > self._baseline * self.threshold_factor:
            self.detections += 1
            return True
        return False

    def segment(self, unit_latency: float) -> Tuple[Optional[int], Optional[int]]:
        """How long the flag rule stays fixed, and the multiple it flags.

        Returns ``(horizon, stop_count)`` for responses whose latencies
        are positive multiples of ``unit_latency``: over the next
        ``horizon`` observations (``None``: unbounded), a response is
        flagged exactly when its multiple is at least ``stop_count``
        (``None``: never).  Warmup flags nothing and ends the horizon,
        since the baseline it learns becomes the threshold.  After
        warmup the horizon is 1 while a single-unit response would still
        lower the baseline, which would move the threshold.
        """
        if self._samples < self.warmup:
            return self.warmup - self._samples, None
        threshold = self._baseline * self.threshold_factor
        # Exact float replay of observe's ``latency > threshold`` test.
        count = max(1, math.floor(threshold / unit_latency))
        while count > 1 and (count - 1) * unit_latency > threshold:
            count -= 1
        while not count * unit_latency > threshold:
            count += 1
        return (1 if unit_latency < self._baseline else None), count

    def observe_batch(self, latencies: np.ndarray) -> np.ndarray:
        """Record responses in order; the per-response detection flags.

        Equal to calling :meth:`observe` once per latency: the baseline
        is the running minimum, warmup samples are never flagged, and a
        later sample is flagged when it exceeds ``threshold_factor``
        times the minimum before it (a sample below that minimum lowers
        it instead, and ``threshold_factor > 1`` keeps the two apart).
        After warmup, a batch with no latency below the baseline leaves
        the baseline as it is, so its flags are one comparison.
        """
        latencies = np.asarray(latencies, dtype=np.float64)
        size = int(latencies.size)
        if size == 0:
            return np.zeros(0, dtype=bool)
        lowest = latencies.min()
        if not lowest > 0:
            raise ValueError("latency must be positive")
        if self._samples >= self.warmup and lowest >= self._baseline:
            flags = latencies > self._baseline * self.threshold_factor
            self.detections += int(np.count_nonzero(flags))
            return flags
        warm = min(size, max(0, self.warmup - self._samples))
        before = np.empty(size, dtype=np.float64)
        before[0] = self._baseline if self._baseline != 0.0 else math.inf
        before[1:] = latencies[:-1]
        np.minimum.accumulate(before, out=before)
        flags = latencies > before * self.threshold_factor
        flags[:warm] = False
        self._samples += warm
        self._baseline = float(min(before[-1], latencies[-1]))
        self.detections += int(np.count_nonzero(flags))
        return flags
