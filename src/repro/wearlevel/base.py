"""Common interface for wear-leveling schemes.

The contract is intentionally narrow so the simulator's hot loop stays
fast:

* :meth:`WearLeveler.write` serves one logical-page write and returns the
  number of *physical page writes* it performed (1 for a plain write,
  more when migrations/swaps happened).  A return value of 2 or more is
  what an attacker observes as a blocked, slow response — the timing side
  channel of Section 3.1.
* :meth:`WearLeveler.write_batch` serves an ordered batch of logical
  writes and returns the per-request physical write counts.  The base
  implementation is the per-write loop, so batching is bit-identical by
  construction; schemes with a cheap data path override it with a
  vectorized fast path that must preserve that identity (enforced by
  ``tests/test_engine_identity.py``); those whose remaps fire on write
  counts build it from :meth:`WearLeveler._serve_segments`.  Its
  ``stop_at`` ends the batch after the first request that performs that
  many physical writes — the response an adaptive attacker would react
  to.
* :meth:`WearLeveler.translate` is the side-effect-free LA -> PA lookup
  used by reads.

Schemes keep aggregate counters (`demand_writes`, `swap_writes`,
`swap_events`) that the timing model and the Figure-7a swap-ratio
experiment consume.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from ..errors import AddressError
from ..pcm.array import PCMArray

if TYPE_CHECKING:
    from ..pcm.softerrors import BitTarget

#: A request that performs at least this many physical writes blocks long
#: enough for the attacker's response-time probe to flag it (memory swaps
#: "block all memory requests to ensure memory integrity").
SWAP_VISIBLE_THRESHOLD = 2


class WearLeveler(abc.ABC):
    """Base class for all wear-leveling schemes."""

    #: Registry name; subclasses override.
    name = "base"

    def __init__(self, array: PCMArray):
        self.array = array
        self.demand_writes = 0
        self.swap_writes = 0
        self.swap_events = 0
        #: Set when a fail-safe fallback fired (soft-error repair was
        #: impossible and the scheme degraded, e.g. to identity mapping).
        self.fault_degraded = False

    # ------------------------------------------------------------------
    # Address space
    # ------------------------------------------------------------------
    @property
    def logical_pages(self) -> int:
        """Size of the logical address space the scheme exposes.

        Equals the physical page count for most schemes; Start-Gap
        reserves one spare frame.
        """
        return self.array.n_pages

    def check_logical(self, logical: int) -> None:
        """Validate a logical address against the exposed space."""
        if not 0 <= logical < self.logical_pages:
            raise AddressError(
                f"logical page {logical} out of range [0, {self.logical_pages})"
            )

    def check_logical_batch(self, seq: np.ndarray) -> None:
        """Validate a batch of logical addresses up front.

        Raises :class:`~repro.errors.AddressError` naming the first
        out-of-range address in request order — the address the serial
        loop would have rejected.
        """
        if seq.size == 0:
            return
        n = self.logical_pages
        if int(seq.min()) < 0 or int(seq.max()) >= n:
            bad = int(seq[(seq < 0) | (seq >= n)][0])
            self.check_logical(bad)

    # ------------------------------------------------------------------
    # The data path
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def translate(self, logical: int) -> int:
        """Current physical frame of ``logical`` (no side effects)."""

    def read(self, logical: int) -> int:
        """Serve a read: translate only (reads do not wear PCM)."""
        return self.translate(logical)

    @abc.abstractmethod
    def write(self, logical: int) -> int:
        """Serve one logical write; return physical writes performed."""

    def write_batch(
        self, addresses: Sequence[int], stop_at: Optional[int] = None
    ) -> np.ndarray:
        """Serve an ordered batch of logical writes.

        Returns the number of physical page writes each request
        performed, as an ``int64`` array.  If some request wears out a
        page, the batch stops after that request and the returned array
        is truncated to the requests actually served — exactly where the
        per-write simulation loop would have stopped, so a batched run
        is bit-identical to a serial one (scheme counters, array state
        and failure attribution included).  With ``stop_at`` (at least
        1), the batch also stops after the first request that performs
        ``stop_at`` or more physical writes, by the same rule.

        This default implementation is the per-write loop, and the
        oracle: the engine calls it unbound
        (``WearLeveler.write_batch(scheme, addresses)``) at
        ``batch_size == 1`` whatever the scheme overrides.  Schemes with
        a vectorizable data path override it and must preserve the
        identity contract.
        """
        seq = np.asarray(addresses, dtype=np.int64)
        counts: List[int] = []
        array = self.array
        if array.failed:
            return np.array(counts, dtype=np.int64)
        write = self.write
        record = counts.append
        # 0 short-circuits the stop test, so a batch without a stop pays
        # one truth test per write.
        stop = stop_at or 0
        for logical in seq.tolist():  # twl: allow(TWL006) reason=default per-write fallback
            record(write(logical))
            if array.failed or (stop and counts[-1] >= stop):
                break
        return np.array(counts, dtype=np.int64)

    def _serve_segments(
        self, addresses: Sequence[int], stop_at: Optional[int]
    ) -> np.ndarray:
        """The batch path of a scheme whose remaps fire on write counts.

        The batch is planned as event-free segments of demand writes,
        each of which may end at an event (a refresh, swap phase, phase
        boundary or gap move) that the scheme runs in scalar code, and
        is then committed guard-then-commit: the frames of every segment
        and event go to the device in one all-or-nothing
        ``PCMArray.apply_batch``.  The scheme supplies four hooks:

        * ``_plan_segments(seq)`` — per-batch data, passed to the other
          hooks as ``plan`` (default ``None``);
        * ``_next_segment(seq, start, plan)`` — the next cut: ``(stop,
          frames, event)``, with ``frames`` the physical frames of
          ``seq[start:stop]`` (``stop > start``) and ``event`` whether
          ``seq[stop - 1]`` fires the event;
        * ``_commit_segment(seq, start, end, frames, plan)`` — scheme
          state for the planned segment ``seq[start:end]``;
        * ``_segment_event(logical)`` — the event's scalar step, which
          writes no device page and returns the physical frames it
          wrote, in order (its cost is how many there are).

        No hook reads the device's wear, so planning never waits for
        the commit.  ``stop_at`` ends the batch after the first request
        that costs that much.  When the commit is rejected (some page
        would reach its endurance), the scheme state and the base
        counters taken before planning are restored and the per-write
        loop serves the batch, ending it at the failing write: once per
        run, in the batch that wears a page out.
        """
        seq = np.asarray(addresses, dtype=np.int64)
        if stop_at is not None and stop_at <= 1:
            # Every request performs at least one write.
            seq = seq[:1]
        array = self.array
        if array.failed:
            return np.zeros(0, dtype=np.int64)
        self.check_logical_batch(seq)
        undo = (self._snapshot_state(), self.demand_writes, self.swap_writes, self.swap_events)
        out = np.ones(seq.size, dtype=np.int64)
        plan = self._plan_segments(seq)
        pending: List[np.ndarray] = []
        moved: List[int] = []
        total = int(seq.size)
        start = 0
        while start < total:
            stop, frames, event = self._next_segment(seq, start, plan)
            self._commit_segment(seq, start, stop, frames, plan)
            pending.append(frames)
            if event:
                written = self._segment_event(int(seq[stop - 1]))
                moved += written
                out[stop - 1] += len(written)
            start = stop
            if stop_at is not None and out[stop - 1] >= stop_at:
                break
        self.demand_writes += start
        pending.append(np.array(moved, dtype=np.int64))
        if start and not array.apply_batch(np.concatenate(pending)):
            state, self.demand_writes, self.swap_writes, self.swap_events = undo
            self._restore_state(state)
            return WearLeveler.write_batch(self, seq, stop_at)
        return out[:start]

    def _issue(self, frames: Sequence[int]) -> int:
        """Write an event's frames to the device in order; its cost."""
        write = self.array.write
        for frame in frames:
            write(frame)
        return len(frames)

    def _plan_segments(self, seq: np.ndarray) -> object:
        """Per-batch data for :meth:`_serve_segments`'s hooks (none)."""
        return None

    # ------------------------------------------------------------------
    # Mid-run persistence
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """The scheme's complete mutable state as a plain state tree.

        Base counters plus whatever the subclass hook
        (:meth:`_snapshot_state`) contributes: tables, RNG registers,
        phase machines.  Derivable structures (endurance tables, layout
        permutations, hash families) are rebuilt by construction and
        never serialized.  Restoring this state into a freshly
        constructed scheme of the same configuration reproduces the
        run's future bit-exactly — the contract
        ``tests/test_snapshot_identity.py`` enforces for every scheme.
        """
        return {
            "base": {
                "demand_writes": self.demand_writes,
                "fault_degraded": self.fault_degraded,
                "swap_events": self.swap_events,
                "swap_writes": self.swap_writes,
            },
            "scheme": self._snapshot_state(),
        }

    def restore(self, state: Dict[str, object]) -> None:
        """Restore a state captured by :meth:`snapshot`."""
        base = state["base"]
        self.demand_writes = int(base["demand_writes"])  # type: ignore[index]
        self.fault_degraded = bool(base["fault_degraded"])  # type: ignore[index]
        self.swap_events = int(base["swap_events"])  # type: ignore[index]
        self.swap_writes = int(base["swap_writes"])  # type: ignore[index]
        self._restore_state(state["scheme"])  # type: ignore[arg-type]

    def _snapshot_state(self) -> Dict[str, object]:
        """Subclass hook: scheme-specific mutable state (default none)."""
        return {}

    def _restore_state(self, state: Dict[str, object]) -> None:
        """Subclass hook mirroring :meth:`_snapshot_state`."""

    # ------------------------------------------------------------------
    # Fault surface
    # ------------------------------------------------------------------
    def fault_surface(self) -> Dict[str, "BitTarget"]:
        """Controller SRAM structures exposed to soft-error injection.

        Maps stable structure names (``"rt"``, ``"wct"``, ``"swpt"``,
        ``"wnt"``, ``"rng"``, ...) to
        :class:`repro.pcm.softerrors.BitTarget` descriptors.  The base
        scheme has no injectable state; schemes that keep SRAM tables
        or RNG registers override this so
        :class:`~repro.pcm.softerrors.SoftErrorInjector` can corrupt —
        and their repair hooks can heal — exactly the structures a real
        controller would expose.
        """
        return {}

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _count_demand(self) -> None:
        self.demand_writes += 1

    def _count_swap(self, physical_writes: int) -> None:
        self.swap_events += 1
        self.swap_writes += physical_writes

    @property
    def total_physical_writes(self) -> int:
        """Demand plus migration writes issued to the array by this scheme."""
        return self.demand_writes + self.swap_writes

    def swap_write_ratio(self) -> float:
        """Extra writes per demand write (the Figure-7a metric)."""
        if self.demand_writes == 0:
            return 0.0
        return self.swap_writes / self.demand_writes

    def stats(self) -> Dict[str, float]:
        """Aggregate counters for result tables."""
        return {
            "demand_writes": float(self.demand_writes),
            "swap_writes": float(self.swap_writes),
            "swap_events": float(self.swap_events),
            "swap_write_ratio": self.swap_write_ratio(),
        }

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(demand_writes={self.demand_writes}, "
            f"swap_events={self.swap_events})"
        )
