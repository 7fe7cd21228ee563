"""Random write attack: uniformly random addresses.

"Random write mode: write addresses are random" (Section 5.2).  Under a
uniform stream every scheme's wear converges to its intrinsic
distribution — PV-unaware schemes die at the weakest page, PV-aware ones
can do better.
"""

from __future__ import annotations

import numpy as np

from ..rng.streams import derive_seed
from ..rng.xorshift import XorShift32
from .base import AttackWorkload


class RandomWriteAttack(AttackWorkload):
    """Uniformly random write addresses."""

    name = "random"

    def __init__(self, n_pages: int, seed: int = 0):
        super().__init__(n_pages)
        self._rng = XorShift32((derive_seed(seed, "attack-random") % 0xFFFF_FFFE) + 1)

    def _snapshot_state(self) -> dict:
        return {"rng": self._rng.snapshot()}

    def _restore_state(self, state: dict) -> None:
        self._rng.restore(state["rng"])

    def next_write(self) -> int:
        return self._emit(self._rng.next_below(self.n_pages))

    def next_writes(self, n: int) -> np.ndarray:
        """Vectorized random stream: one jump-ahead draw per batch."""
        if n < 0:
            raise ValueError("batch size must be non-negative")
        self.writes_emitted += n
        return self._rng.next_words(n) % self.n_pages
