"""No wear leveling (the paper's "NOWL" baseline).

Logical pages map directly onto physical frames; every write lands where
the program aimed it.  Lifetime is then dictated entirely by the hottest
page of the workload — the reference point for Table 2's "Lifetime w/o
WL" column.
"""

from __future__ import annotations

import numpy as np

from .base import WearLeveler


class NoWearLeveling(WearLeveler):
    """Identity mapping; no migrations, no overhead."""

    name = "nowl"

    def translate(self, logical: int) -> int:
        self.check_logical(logical)
        return logical

    def write(self, logical: int) -> int:
        self.check_logical(logical)
        self.array.write(logical)
        self.demand_writes += 1
        return 1

    def write_batch(self, addresses) -> np.ndarray:
        # Identity mapping: the logical sequence *is* the physical
        # sequence, so the whole batch lands in one apply_batch call.
        seq = np.asarray(addresses, dtype=np.int64)
        if self.array.failed:
            return np.zeros(0, dtype=np.int64)
        if seq.size and ((seq < 0).any() or (seq >= self.logical_pages).any()):
            bad = int(seq[(seq < 0) | (seq >= self.logical_pages)][0])
            self.check_logical(bad)
        applied = self.array.apply_batch(seq)
        self.demand_writes += applied
        return np.ones(applied, dtype=np.int64)
