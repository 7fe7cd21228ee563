"""The wear-tracking PCM page array.

:class:`PCMArray` is the substrate every wear-leveling scheme writes to.
It tracks per-page write counts against per-page endurance and records
the first wear-out event.  Data contents are not stored — wear-leveling
behaviour depends only on *where* writes land — but swap operations still
cost the correct number of physical page writes.

The canonical state is structure-of-arrays numpy: ``writes`` and
``endurance`` are flat ``int64`` arrays and every write path mutates (or
reads) them directly.  ``endurance`` is frozen read-only after
construction — endurance is tested once at format time, so an accidental
in-place mutation raises immediately instead of silently corrupting the
run.  The scalar accessors (:meth:`page_writes`, :meth:`page_endurance`)
are thin views over the same arrays.

Three write paths are provided:

* :meth:`write` — single page, exact failure detection (used inside
  scheme hot loops);
* :meth:`apply_batch` — an *ordered* batch of single-page writes with
  exact first-failure attribution, bit-identical to issuing the same
  sequence through :meth:`write` (the batched-protocol substrate).  The
  common no-failure case is a single vectorized accumulate; the ordered
  scalar scan only runs when some page can actually cross its endurance
  within the batch.  With ``all_or_nothing`` an unordered batch is
  applied only if no page can cross, and not at all otherwise;
* :meth:`apply_write_counts` — a sparse ``{page: writes}`` tally (the
  commit of TWL's short walk), all or nothing like
  ``apply_batch(all_or_nothing=True)``, checked and applied entry by
  entry.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np

from ..errors import AddressError, ConfigError
from .faults import FirstFailure


class PCMArray:
    """A page-granular PCM array with per-page endurance.

    Parameters
    ----------
    endurance:
        Per-page endurance values (positive integers).  The first write
        that exhausts a page is recorded as :attr:`first_failure`; the
        simulator checks it and stops cleanly.
    """

    def __init__(self, endurance: Sequence[int]):
        endurance_array = np.asarray(endurance, dtype=np.int64)
        if endurance_array.ndim != 1 or endurance_array.size < 1:
            raise ConfigError("endurance must be a non-empty 1-D sequence")
        if (endurance_array <= 0).any():
            raise ConfigError("all endurance values must be positive")
        #: Canonical per-page endurance.  Frozen read-only: endurance is
        #: immutable after format time, so an in-place mutation raises
        #: ``ValueError`` at the offending statement.
        self.endurance = endurance_array.copy()
        self.endurance.setflags(write=False)
        self.n_pages = int(endurance_array.size)
        #: Canonical per-page write counts.  Owned by the write paths
        #: below; treat as read-only from outside.
        self.writes = np.zeros(self.n_pages, dtype=np.int64)
        self.total_writes = 0
        #: Fast-path failure flag (plain attribute so hot loops avoid a
        #: property call per write).
        self.failed = False
        self._first_failure: Optional[FirstFailure] = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def uniform(cls, n_pages: int, endurance: int) -> "PCMArray":
        """Array with identical endurance on every page (no PV)."""
        return cls(np.full(n_pages, endurance, dtype=np.int64))

    # ------------------------------------------------------------------
    # Write paths
    # ------------------------------------------------------------------
    def write(self, physical_page: int) -> None:
        """Apply one page write.

        Records the first failure the moment a page's write count reaches
        its endurance.  Writes to already-failed pages keep counting (the
        simulator stops at first failure).
        """
        writes = self.writes
        if not 0 <= physical_page < self.n_pages:
            raise AddressError(
                f"physical page {physical_page} out of range [0, {self.n_pages})"
            )
        count = int(writes[physical_page]) + 1
        writes[physical_page] = count
        self.total_writes += 1
        if count >= self.endurance[physical_page] and self._first_failure is None:
            self.failed = True
            self._first_failure = FirstFailure(
                physical_page=physical_page,
                device_writes=self.total_writes,
                page_endurance=int(self.endurance[physical_page]),
            )

    def apply_batch(
        self, physical_sequence: Sequence[int], all_or_nothing: bool = False
    ) -> int:
        """Apply an *ordered* batch of single-page writes.

        ``physical_sequence`` lists one physical page per write, in
        request order.  The batch is bit-identical to issuing the same
        sequence through :meth:`write`: if some write in the sequence
        wears out a page, the failure is attributed to that exact write
        (page and device-write index), application stops there, and the
        number of writes actually applied is returned — the contract the
        batched write protocol and the ``repro.exec`` cache rely on.

        When no page can cross its endurance within the batch (the
        steady-state case), the whole batch is one vectorized
        accumulate; the per-occurrence attribution scan runs only when a
        crossing is actually possible.

        With ``all_or_nothing`` the sequence need not be in request
        order: before the first failure, a batch in which some page would
        reach its endurance is not applied at all and 0 is returned, so
        a caller whose order is unobservable short of a failure learns
        from the same counts that it must replay the writes in order.
        """
        seq = np.asarray(physical_sequence, dtype=np.int64)
        if seq.ndim != 1:
            raise ConfigError("physical_sequence must be 1-D")
        if seq.size == 0:
            return 0
        if (seq < 0).any() or (seq >= self.n_pages).any():
            bad = int(seq[(seq < 0) | (seq >= self.n_pages)][0])
            raise AddressError(
                f"physical page {bad} out of range [0, {self.n_pages})"
            )
        if self._first_failure is None and seq.size * 8 < self.n_pages:
            # Small chunks (a ``_serve_segments`` batch of an adaptive
            # run is one segment of a few dozen writes against
            # thousands of pages; TWL's short spans commit through
            # apply_write_counts instead): touch only the affected
            # entries instead of materializing full-array counts.  Falls
            # through to the general machinery on duplicates or whenever
            # a crossing is possible, so attribution stays exact.  (A
            # sorted adjacent-compare beats np.unique's fixed overhead
            # at these sizes.)
            s = np.sort(seq)
            if seq.size < 2 or not (s[1:] == s[:-1]).any():
                before = self.writes[seq]
                if (before + 1 < self.endurance[seq]).all():
                    self.writes[seq] = before + 1
                    self.total_writes += int(seq.size)
                    return int(seq.size)
        counts = np.bincount(seq, minlength=self.n_pages)
        if self._first_failure is not None:
            # Past first failure every write just keeps counting.
            self.writes += counts
            self.total_writes += int(seq.size)
            return int(seq.size)
        remaining = self.endurance - self.writes
        # No failure recorded => every page is strictly below its
        # endurance, so remaining >= 1 everywhere.
        crossing = np.flatnonzero(counts >= remaining)
        if not crossing.size:
            self.writes += counts
            self.total_writes += int(seq.size)
            return int(seq.size)
        if all_or_nothing:
            return 0
        # Some page reaches its endurance inside this batch: find the
        # earliest exhausting write in request order.
        fail_pos = seq.size
        winner = -1
        for page in crossing.tolist():  # twl: allow(TWL006) reason=exact failure attribution tail
            # The remaining[page]-th occurrence of `page` in the
            # sequence is the write that exhausts it.
            position = int(
                np.flatnonzero(seq == page)[int(remaining[page]) - 1]
            )
            if position < fail_pos:
                fail_pos, winner = position, page
        applied = seq[: fail_pos + 1]
        self.writes += np.bincount(applied, minlength=self.n_pages)
        self.total_writes += int(applied.size)
        self.failed = True
        self._first_failure = FirstFailure(
            physical_page=winner,
            device_writes=self.total_writes - int(applied.size) + fail_pos + 1,
            page_endurance=int(self.endurance[winner]),
        )
        return int(applied.size)

    def apply_write_counts(self, per_page_writes: Mapping[int, int]) -> bool:
        """Apply a sparse ``{page: writes}`` tally, all or nothing.

        The commit of TWL's short walk: a span of a few dozen writes
        touches a handful of pages, so the tally is checked and applied
        entry by entry rather than through full-array counts.  Every key
        is range-checked and every count must be non-negative.  Before
        the first failure, as with ``apply_batch(...,
        all_or_nothing=True)``, a tally that would bring some page to its
        endurance is not applied at all and False is returned: the
        caller must replay those writes in order.  After the first
        failure the writes just keep counting.  Returns whether the
        tally was applied.
        """
        n_pages = self.n_pages
        total = 0
        for page, count in per_page_writes.items():
            if not 0 <= page < n_pages:
                raise AddressError(f"physical page {page} out of range [0, {n_pages})")
            if count < 0:
                raise ConfigError(f"write count {count} of page {page} is negative")
            total += count
        writes = self.writes
        if self._first_failure is None:
            endurance = self.endurance
            for page, count in per_page_writes.items():
                if writes[page] + count >= endurance[page]:
                    return False
        for page, count in per_page_writes.items():
            writes[page] += count
        self.total_writes += total
        return True

    # ------------------------------------------------------------------
    # Mid-run persistence
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """The mutable wear state; endurance is format-time and derivable."""
        failure = self._first_failure
        return {
            "failed": self.failed,
            "first_failure": None
            if failure is None
            else {
                "device_writes": failure.device_writes,
                "page_endurance": failure.page_endurance,
                "physical_page": failure.physical_page,
            },
            "total_writes": self.total_writes,
            "writes": self.writes.copy(),
        }

    def restore(self, state: dict) -> None:
        """Restore a state captured by :meth:`snapshot`."""
        writes = np.asarray(state["writes"], dtype=np.int64)
        if writes.shape != self.writes.shape:
            raise ConfigError(
                f"snapshot holds {writes.size} pages, array has {self.n_pages}"
            )
        self.writes[:] = writes
        self.total_writes = int(state["total_writes"])
        self.failed = bool(state["failed"])
        failure = state["first_failure"]
        self._first_failure = (
            None
            if failure is None
            else FirstFailure(
                physical_page=int(failure["physical_page"]),
                device_writes=int(failure["device_writes"]),
                page_endurance=int(failure["page_endurance"]),
            )
        )

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def first_failure(self) -> Optional[FirstFailure]:
        """The first wear-out event, or None while all pages are alive."""
        return self._first_failure

    @property
    def has_failure(self) -> bool:
        """Whether any page has worn out."""
        return self.failed

    def page_writes(self, physical_page: int) -> int:
        """Writes served by one page so far (O(1), hot-loop safe)."""
        if not 0 <= physical_page < self.n_pages:
            raise AddressError(
                f"physical page {physical_page} out of range [0, {self.n_pages})"
            )
        return int(self.writes[physical_page])

    def page_endurance(self, physical_page: int) -> int:
        """Endurance of one page (O(1), hot-loop safe)."""
        if not 0 <= physical_page < self.n_pages:
            raise AddressError(
                f"physical page {physical_page} out of range [0, {self.n_pages})"
            )
        return int(self.endurance[physical_page])

    def write_counts(self) -> np.ndarray:  # twl: allow(TWL011) reason=oracle: the identity suites compare per-page wear of batched and per-write runs through it
        """Copy of the per-page write counts."""
        return self.writes.copy()

    def remaining(self) -> np.ndarray:
        """Per-page remaining endurance (clipped at zero)."""
        return np.maximum(self.endurance - self.writes, 0)

    def wear_fraction(self) -> np.ndarray:
        """Per-page wear as a fraction of endurance."""
        return self.writes / self.endurance.astype(np.float64)

    def __repr__(self) -> str:
        return (
            f"PCMArray(n_pages={self.n_pages}, total_writes={self.total_writes}, "
            f"failed={self.has_failure})"
        )
