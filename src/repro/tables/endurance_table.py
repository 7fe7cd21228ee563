"""The endurance table (ET).

Stores the manufacturer-tested endurance of every *physical* page.  The
paper provisions 27 bits per entry — enough for the full 1e8-mean
endurance range (2**27 ≈ 1.34e8).  Values wider than the entry saturate,
exactly as a hardware table would.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import AddressError, TableError


class EnduranceTable:
    """Read-only per-physical-page endurance, quantized to ``bits`` wide."""

    def __init__(self, endurance: Sequence[int], bits: int = 27):
        if not 1 <= bits <= 62:
            raise TableError(f"entry width must be in [1, 62] bits, got {bits}")
        values = np.asarray(endurance, dtype=np.int64)
        if values.ndim != 1 or values.size < 1:
            raise TableError("endurance must be a non-empty 1-D sequence")
        if (values <= 0).any():
            raise TableError("endurance values must be positive")
        self.bits = bits
        cap = (1 << bits) - 1
        self.saturated_entries = int((values > cap).sum())
        # Canonical storage; kept private so every external read goes
        # through lookup() / as_array() and the table stays immutable.
        self._values = np.minimum(values, cap)
        self.n_pages = int(values.size)

    @property
    def entry_bits(self) -> int:
        """Bits per entry (27 in the paper)."""
        return self.bits

    def lookup(self, physical: int) -> int:
        """Tested endurance of ``physical``."""
        if not 0 <= physical < self.n_pages:
            raise AddressError(
                f"page {physical} out of range [0, {self.n_pages})"
            )
        return int(self._values[physical])

    def values_array(self) -> np.ndarray:
        """Live canonical storage (vectorized read path; do not write).

        Element-for-element what :meth:`lookup` returns — the batched
        TWL planner gathers whole event schedules from it.
        """
        return self._values

    def as_array(self) -> np.ndarray:
        """Copy of all entries."""
        return self._values.copy()

    def __len__(self) -> int:
        return self.n_pages
