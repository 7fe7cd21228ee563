"""Start-Gap wear leveling [Qureshi et al., MICRO'09].

An extra baseline from the paper's related work ([10] — also the source
of TWL's Feistel RNG).  One spare frame (the *gap*) rotates through the
array: every ``gap_move_interval`` demand writes the page adjacent to the
gap is copied into it, so the whole address space slowly slides across
physical frames.  With ``randomize=True`` the logical address is first
passed through a static Feistel permutation (Randomized Start-Gap), which
breaks spatial correlation between logical and physical neighbourhoods.

Start-Gap is PV-*unaware*: it equalizes writes across frames, which (as
the paper argues) actually accelerates the weakest pages' death under
process variation.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..config import StartGapConfig
from ..errors import ConfigError
from ..pcm.array import PCMArray
from ..rng.feistel import FeistelNetwork
from .base import WearLeveler


class StartGap(WearLeveler):
    """Start-Gap with optional static address randomization."""

    name = "startgap"

    def __init__(
        self,
        array: PCMArray,
        config: StartGapConfig = StartGapConfig(),
        seed: int = 0,
    ):
        super().__init__(array)
        if array.n_pages < 2:
            raise ConfigError("Start-Gap needs at least two frames (one spare)")
        self.config = config
        #: Logical space is one page smaller than physical: the gap frame.
        self._n_logical = array.n_pages - 1
        self._start = 0
        self._gap = self._n_logical  # gap begins at the last frame
        self._writes_since_move = 0
        self._permutation = None
        #: Lazily built vector mirror of :meth:`_randomize` (the static
        #: permutation never changes, so one table serves all batches).
        self._randomize_table = None
        if config.randomize:
            bits = max(2, self._n_logical.bit_length())
            if bits % 2:
                bits += 1
            self._permutation = FeistelNetwork(bits=bits, seed=seed)

    @property
    def logical_pages(self) -> int:
        return self._n_logical

    def _randomize(self, logical: int) -> int:
        """Static randomization layer (cycle-walking the Feistel output)."""
        if self._permutation is None:
            return logical
        value = self._permutation.encrypt(logical)
        # Cycle-walk until the value lands inside the logical space; the
        # permutation property guarantees termination.
        while value >= self._n_logical:
            value = self._permutation.encrypt(value)
        return value

    def translate(self, logical: int) -> int:
        self.check_logical(logical)
        inner = self._randomize(logical)
        physical = (inner + self._start) % self._n_logical
        if physical >= self._gap:
            physical += 1
        return physical

    def write(self, logical: int) -> int:
        physical = self.translate(logical)
        self.array.write(physical)
        self._count_demand()
        writes = 1
        self._writes_since_move += 1
        if self._writes_since_move >= self.config.gap_move_interval:
            self._writes_since_move = 0
            writes += self._issue(self._move_gap())
        return writes

    def write_batch(self, addresses, stop_at: Optional[int] = None) -> np.ndarray:  # twl: allow(TWL009) reason=batch path materializes the lazy seed-derived randomize table the scalar path builds on first miss; contents are identical either way
        """Closed-form batch path: the whole rotation is arithmetic.

        The gap cycles through ``n_logical + 1`` positions, one step per
        ``gap_move_interval`` demand writes, so the start/gap registers
        at any demand write of the batch — and every gap move's written
        frame — follow in closed form from the registers at batch start.
        The entire batch (demand writes plus move writes) then reduces
        to a handful of vector expressions and one bulk accumulate.

        Device-write *order* inside the batch is observable only through
        first-failure attribution, so the array applies the batch's
        combined counts only if no page would reach its endurance under
        them (``PCMArray.apply_batch(..., all_or_nothing=True)``); if
        one would, the per-write loop replays the serial interleaving
        and stops at the failing write.  The guard triggers at most once
        per run — the batch that contains the failure.  A stop-bounded
        batch is planned as segments of :meth:`_serve_segments`, one
        per gap move, so it ends at the gap move whose cost reaches
        ``stop_at``.
        """
        if stop_at is not None:
            return self._serve_segments(addresses, stop_at)
        seq = np.asarray(addresses, dtype=np.int64)
        array = self.array
        if array.failed:
            return np.zeros(0, dtype=np.int64)
        self.check_logical_batch(seq)
        if seq.size == 0:
            return np.zeros(0, dtype=np.int64)
        n = self._n_logical
        interval = self.config.gap_move_interval
        m = int(seq.size)
        wsm0 = self._writes_since_move
        p0 = self._gap
        start0 = self._start
        cycle = n + 1  # gap states: frames 0..n

        if self._permutation is not None:
            inner = self._randomize_vector()[seq]
        else:
            inner = seq
        # Gap moves completed before demand write t (0-based in-batch).
        moves_before = (wsm0 + np.arange(m, dtype=np.int64)) // interval
        # A move at gap 0 wraps (gap jumps to n, start advances) instead
        # of writing; wraps among the first j moves is closed-form too.
        wraps_before = (moves_before + n - p0) // cycle
        start_t = (start0 + wraps_before) % n
        gap_t = (p0 - moves_before) % cycle
        physical = (inner + start_t) % n
        physical = physical + (physical >= gap_t)

        total_moves = (wsm0 + m) // interval
        moves = np.arange(total_moves, dtype=np.int64)
        gap_at_move = (p0 - moves) % cycle
        nonwrap = gap_at_move != 0
        move_frames = gap_at_move[nonwrap]

        if not array.apply_batch(
            np.concatenate((physical, move_frames)), all_or_nothing=True
        ):
            return WearLeveler.write_batch(self, seq)
        out = np.ones(m, dtype=np.int64)
        if total_moves:
            # Move j fires right after demand write (j+1)*interval-wsm0-1
            # and bills its migration write to that request.
            move_positions = (moves + 1) * interval - wsm0 - 1
            out[move_positions[nonwrap]] += 1
            moved = int(nonwrap.sum())
            self.swap_events += moved
            self.swap_writes += moved
        self.demand_writes += m
        self._writes_since_move = (wsm0 + m) % interval
        self._gap = int((p0 - total_moves) % cycle)
        self._start = int((start0 + (total_moves + n - p0) // cycle) % n)
        return out

    def _plan_segments(self, seq: np.ndarray) -> np.ndarray:
        if self._permutation is None:
            return seq
        return self._randomize_vector()[seq]

    def _next_segment(self, seq: np.ndarray, start: int, inner: np.ndarray):
        # Translation is fixed between gap moves.
        room = self.config.gap_move_interval - self._writes_since_move
        stop = min(int(seq.size), start + room)
        physical = (inner[start:stop] + self._start) % self._n_logical
        return stop, physical + (physical >= self._gap), stop - start == room

    def _commit_segment(self, seq, start, end, frames, plan) -> None:
        self._writes_since_move = (
            self._writes_since_move + end - start
        ) % self.config.gap_move_interval

    def _segment_event(self, logical: int) -> Tuple[int, ...]:
        return self._move_gap()

    def _snapshot_state(self):
        # The Feistel permutation and its table are static (derivable
        # from the seed); only the rotation registers move.
        return {
            "gap": self._gap,
            "start": self._start,
            "writes_since_move": self._writes_since_move,
        }

    def _restore_state(self, state):
        self._gap = int(state["gap"])
        self._start = int(state["start"])
        self._writes_since_move = int(state["writes_since_move"])

    def fault_surface(self):
        """Start-Gap's injectable state: the start and gap registers.

        Two single-entry targets of address width.  Neither register
        has structural redundancy (there is no inverse to scan), so
        parity protection goes straight to the fail-safe: re-format the
        rotation (start 0, gap parked at the last frame).  Translation
        stays total for *any* register value — ``start`` enters a
        modulo and a corrupt ``gap`` merely stops bumping — so even
        unprotected corruption degrades leveling without ever
        misaddressing the array.
        """
        from ..pcm.softerrors import BitTarget

        bits = max(1, (self.array.n_pages - 1).bit_length())

        def read(entry: int) -> int:
            return self._start if entry == 0 else self._gap

        def write(entry: int, value: int) -> None:
            if entry == 0:
                self._start = int(value)
            else:
                self._gap = int(value)

        return {
            "regs": BitTarget(
                name="regs",
                n_entries=2,
                entry_bits=bits,
                read=read,
                write=write,
                fail_safe=self.fault_fail_safe,
            ),
        }

    def fault_fail_safe(self) -> None:
        """Graceful degradation: re-format the rotation registers."""
        self._start = 0
        self._gap = self._n_logical
        self._writes_since_move = 0
        self.fault_degraded = True

    def _randomize_vector(self) -> np.ndarray:
        if self._randomize_table is None:
            # Vectorized cycle-walk: re-encrypt only the entries still
            # outside the logical space (element-wise identical to the
            # scalar :meth:`_randomize` loop).
            values = self._permutation.encrypt_array(
                np.arange(self._n_logical, dtype=np.int64)
            )
            walking = values >= self._n_logical
            while walking.any():
                values[walking] = self._permutation.encrypt_array(values[walking])
                walking = values >= self._n_logical
            self._randomize_table = values  # twl: allow(TWL008) reason=lazy cache of the seed-derived address permutation; a rebuild after restore is bit-identical
        return self._randomize_table

    def _move_gap(self) -> Tuple[int, ...]:
        """Advance the gap by one frame (costs one migration write).

        Returns the frame the move writes, for the caller to issue.
        """
        if self._gap == 0:
            self._gap = self._n_logical
            self._start = (self._start + 1) % self._n_logical
            return ()  # the wrap itself moves no data
        # Copy frame gap-1 into the gap frame.
        gap = self._gap
        self._gap -= 1
        self._count_swap(1)
        return (gap,)
