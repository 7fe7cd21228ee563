"""No wear leveling (the paper's "NOWL" baseline).

Logical pages map directly onto physical frames; every write lands where
the program aimed it.  Lifetime is then dictated entirely by the hottest
page of the workload — the reference point for Table 2's "Lifetime w/o
WL" column.
"""

from __future__ import annotations

from typing import Optional

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

    def write_batch(self, addresses, stop_at: Optional[int] = None) -> np.ndarray:
        # Identity mapping: the logical sequence *is* the physical
        # sequence, so the whole batch is one all-or-nothing commit; a
        # rejected one goes to the per-write loop, which stops at the
        # failing write.  Every request costs one write, so only
        # stop_at <= 1 stops it.
        seq = np.asarray(addresses, dtype=np.int64)
        if stop_at is not None and stop_at <= 1:
            seq = seq[:1]
        if self.array.failed:
            return np.zeros(0, dtype=np.int64)
        self.check_logical_batch(seq)
        if not self.array.apply_batch(seq):
            return WearLeveler.write_batch(self, seq, stop_at)
        self.demand_writes += int(seq.size)
        return np.ones(seq.size, dtype=np.int64)
