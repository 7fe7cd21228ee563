"""The write counter table (WCT).

One small (7-bit in the paper) counter per page.  The TWL engine bumps a
page's counter on every write and triggers a toss-up when the counter
reaches the toss-up interval, then clears it (interval-triggered toss-up,
§4.3).  Counters wrap at their bit width, as a hardware counter would.

The canonical storage is a flat ``int64`` numpy array; the scalar
accessors are thin views over it, and the batched write path updates
a whole span of counters with one call: the event walk's vectorized
:meth:`WriteCounterTable.bulk_advance`, or the short walk's
:meth:`WriteCounterTable.assign` of the few pages it wrote.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..errors import AddressError, TableError


class WriteCounterTable:
    """Per-page wrapping write counters with an interval trigger."""

    def __init__(self, n_pages: int, bits: int = 7, interval: int = 32):
        if n_pages < 1:
            raise TableError("write counter table needs at least one page")
        if not 1 <= bits <= 30:
            raise TableError(f"counter width must be in [1, 30] bits, got {bits}")
        if not 1 <= interval < (1 << bits):
            raise TableError(
                f"interval {interval} must fit in a {bits}-bit counter"
            )
        self.n_pages = n_pages
        self.bits = bits
        self.interval = interval
        #: Canonical counter storage (batch planners read it directly
        #: through :meth:`values_array`).
        self._values = np.zeros(n_pages, dtype=np.int64)

    @property
    def entry_bits(self) -> int:
        """Bits per entry (7 in the paper)."""
        return self.bits

    def record_write(self, page: int) -> bool:
        """Count one write to ``page``; True when the interval fires.

        The counter resets on trigger, so with interval K exactly one in
        every K writes to the page triggers a toss-up.
        """
        self._check(page)
        values = self._values
        count = int(values[page]) + 1
        if count >= self.interval:
            count = 0
        values[page] = count
        return count == 0

    def force_trigger_next(self, page: int) -> None:
        """Make the next write to ``page`` fire the interval trigger.

        Used by TWL's relocation hook: after an inter-pair swap parks a
        page on an arbitrary frame of its new pair, the next write
        re-runs the toss-up immediately instead of waiting out the
        interval (a single table write in hardware).
        """
        self._check(page)
        self._values[page] = self.interval - 1

    def values_array(self) -> np.ndarray:
        """The canonical counter array (for vectorized batch planning).

        Returns the live storage — treat it as read-only; it stays
        current across subsequent mutations.
        """
        return self._values

    def bulk_advance(self, pages: np.ndarray, steps: np.ndarray) -> None:
        """Advance each of the distinct ``pages`` by ``steps``, with wrapping.

        The TWL span walks' counter update: ``steps`` holds a page's
        write count in the span, the shift of its trigger phase when an
        inter-pair swap re-phased it (:meth:`force_trigger_next`
        mid-span); both only matter modulo the interval.
        """
        values = self._values
        values[pages] = (values[pages] + steps) % self.interval

    def assign(self, values: Dict[int, int]) -> None:
        """Set each page's counter to ``values[page]``.

        The TWL short walk's counter update: it follows
        :meth:`record_write` and :meth:`force_trigger_next` page by page
        in a dict, and writes the values it reached back in one call.
        """
        stored = self._values
        for page, value in values.items():
            stored[page] = value

    def snapshot(self) -> dict:
        """The counter array, copied (mid-run persistence)."""
        return {"values": self._values.copy()}

    def restore(self, state: dict) -> None:
        """Restore a state captured by :meth:`snapshot`."""
        self._values[:] = np.asarray(state["values"], dtype=np.int64)

    def value(self, page: int) -> int:
        """Current counter value for ``page``."""
        self._check(page)
        return int(self._values[page])

    def poke(self, page: int, value: int) -> None:
        """Overwrite one counter in place — models SRAM corruption.

        Bypasses the trigger semantics entirely (a bit flip does not
        count as a write).  Any value that fits the entry width is
        representable — a corrupted counter at or above the interval
        simply fires the trigger on the next write (and disables the
        batch planner's modular trigger prediction until it does).
        """
        self._check(page)
        self._values[page] = int(value)

    def reset(self, page: int) -> None:
        """Clear the counter for ``page``."""
        self._check(page)
        self._values[page] = 0

    def _check(self, page: int) -> None:
        if not 0 <= page < self.n_pages:
            raise AddressError(f"page {page} out of range [0, {self.n_pages})")

    def __len__(self) -> int:
        return self.n_pages
