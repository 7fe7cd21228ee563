"""Wear Rate Leveling [Dong et al., DAC'11].

The prediction-swap-running flow the paper uses to illustrate PV-aware
wear leveling (Figure 1):

1. **Prediction** — the write number table (WNT) counts writes per
   logical page for ``prediction_writes_per_page * n_pages`` writes.
2. **Swap** — logical pages are ranked hottest-first by WNT and physical
   frames by ascending *wear rate* (accumulated writes divided by tested
   endurance — the scheme's namesake metric); data is migrated so the
   k-th hottest page sits on the k-th least-worn-per-endurance frame.
   Ranking by wear rate rather than raw endurance is what lets the
   scheme rotate a persistently hot page across strong frames instead of
   grinding down a single one.  The migration blocks the memory (the
   attacker's timing probe sees it).
3. **Running** — writes proceed through the updated remapping table for
   ``running_multiplier`` times the prediction length, then the WNT is
   cleared and the cycle restarts.

The scheme's correctness rests on write-distribution *consistency* across
phases — exactly the assumption the inconsistent-write attack of
Section 3 breaks: a page that faked coldness is mapped onto the highest
wear-rate (closest to death) frame and can then be hammered.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..config import WRLConfig
from ..pcm.array import PCMArray
from ..tables.endurance_table import EnduranceTable
from ..tables.remap import RemappingTable
from ..tables.wnt import WriteNumberTable
from .base import WearLeveler

PHASE_PREDICTION = "prediction"
PHASE_RUNNING = "running"


class WearRateLeveling(WearLeveler):
    """Prediction-swap-running PV-aware wear leveling."""

    name = "wrl"

    def __init__(
        self,
        array: PCMArray,
        config: WRLConfig = WRLConfig(),
        seed: int = 0,
    ):
        super().__init__(array)
        n = array.n_pages
        self.config = config
        self.remap = RemappingTable(n)
        self.endurance_table = EnduranceTable(array.endurance)
        self.wnt = WriteNumberTable(n)
        #: Controller-side per-frame write counters (the wear half of the
        #: wear-rate metric; the controller counts the writes it issues).
        self._frame_writes = np.zeros(n, dtype=np.int64)
        self._endurance = self.endurance_table.as_array().astype(np.float64)
        self.prediction_length = max(1, int(config.prediction_writes_per_page * n))
        self.running_length = max(1, int(self.prediction_length * config.running_multiplier))
        self.phase = PHASE_PREDICTION
        self._phase_writes = 0
        self.swap_phases_completed = 0

    def translate(self, logical: int) -> int:
        self.check_logical(logical)
        return self.remap.lookup(logical)

    def write(self, logical: int) -> int:
        self.check_logical(logical)
        physical = self.remap.lookup(logical)
        self.array.write(physical)
        self._frame_writes[physical] += 1
        self._count_demand()
        writes = 1
        if self.phase == PHASE_PREDICTION:
            self.wnt.record_write(logical)
        self._phase_writes += 1
        if self._phase_writes >= self._phase_length:
            self._phase_writes = 0
            writes += self._issue(self._segment_event(logical))
        return writes

    @property
    def _phase_length(self) -> int:
        """Demand writes in the current phase."""
        if self.phase == PHASE_PREDICTION:
            return self.prediction_length
        return self.running_length

    def write_batch(
        self, addresses: Sequence[int], stop_at: Optional[int] = None
    ) -> np.ndarray:
        """Vectorized batch path: segments that end at phase boundaries.

        Between phase boundaries the data path is a pure gather through
        the remapping table, so each boundary-free run of demand writes
        is one segment of :meth:`_serve_segments`: a bincount into the
        frame-write counters and (in the prediction phase) one batched
        WNT update.  The scalar phase step runs only at boundaries —
        once per ``prediction_length``/``running_length`` writes — and
        the whole batch reaches the device in one
        :meth:`~repro.pcm.array.PCMArray.apply_batch` call.
        """
        return self._serve_segments(addresses, stop_at)

    def _next_segment(self, seq: np.ndarray, start: int, plan):
        room = self._phase_length - self._phase_writes
        stop = min(int(seq.size), start + room)
        frames = self.remap.mapping_array()[seq[start:stop]]
        return stop, frames, stop - start == room

    def _commit_segment(self, seq, start, end, frames, plan) -> None:
        self._frame_writes += np.bincount(frames, minlength=self._frame_writes.size)
        if self.phase == PHASE_PREDICTION:
            self.wnt.record_write_batch(seq[start:end])
        # A segment never runs past its phase's boundary, where the
        # count wraps to 0 for the next phase.
        self._phase_writes = (self._phase_writes + end - start) % self._phase_length

    def _segment_event(self, logical: int) -> List[int]:
        """End the phase: prediction -> swap -> running -> prediction.

        Returns the frames the phase step writes (the swap's migration).
        """
        if self.phase == PHASE_RUNNING:
            self.wnt.clear()
            self.phase = PHASE_PREDICTION
            return []
        cost = self._swap_phase()
        self.phase = PHASE_RUNNING
        return cost

    def _snapshot_state(self):
        return {
            "frame_writes": self._frame_writes.copy(),
            "phase": self.phase,
            "phase_writes": self._phase_writes,
            "remap": self.remap.snapshot(),
            "swap_phases_completed": self.swap_phases_completed,
            "wnt": self.wnt.snapshot(),
        }

    def _restore_state(self, state):
        self._frame_writes[:] = np.asarray(state["frame_writes"], dtype=np.int64)
        self.phase = str(state["phase"])
        self._phase_writes = int(state["phase_writes"])
        self.remap.restore(state["remap"])
        self.swap_phases_completed = int(state["swap_phases_completed"])
        self.wnt.restore(state["wnt"])

    def fault_surface(self):
        """WRL's injectable SRAM state: RT and the WNT.

        A corrupted WNT entry is repairable only in the "safe value"
        sense — the true count is gone, so the scrub resets the entry
        to zero (the page re-earns its heat ranking next phase).  The
        RT scrubs from its inverse array, with the identity-mapping
        fail-safe when that redundancy is lost too.
        """
        from ..pcm.softerrors import BitTarget

        remap = self.remap
        wnt = self.wnt

        def repair_wnt(page: int) -> bool:
            wnt.poke(page, 0)
            return True

        return {
            "rt": BitTarget(
                name="rt",
                n_entries=remap.n_pages,
                entry_bits=remap.entry_bits,
                read=remap.raw_entry,
                write=remap.poke_entry,
                repair=remap.repair_entry,
                fail_safe=self.fault_fail_safe,
            ),
            "wnt": BitTarget(
                name="wnt",
                n_entries=wnt.n_pages,
                entry_bits=wnt.entry_bits,
                read=wnt.count,
                write=wnt.poke,
                repair=repair_wnt,
            ),
        }

    def fault_fail_safe(self) -> None:
        """Graceful degradation: collapse the RT to identity mapping."""
        self.remap.reset_identity()
        self.fault_degraded = True

    def wear_rates(self) -> np.ndarray:
        """Per-frame wear rate: accumulated writes / tested endurance."""
        return self._frame_writes / self._endurance

    def _swap_phase(self) -> List[int]:
        """Migrate data so predicted-hot pages sit on low-wear-rate frames.

        Builds the desired LA -> PA permutation, applies it through the
        remapping table, and charges one page write per frame that
        receives new data (the migration is staged through the
        controller's page buffer, so frames that transiently participate
        in swaps but end with their original data never hit PCM).
        Returns those frames, for the caller to issue.
        """
        hot_first = self.wnt.hottest_first()
        fresh_first = np.argsort(self.wear_rates(), kind="stable")
        desired = {int(la): int(fresh_first[rank]) for rank, la in enumerate(hot_first)}

        before = self.remap.mapping()
        for la, target_pa in desired.items():
            current_pa = self.remap.lookup(la)
            if current_pa != target_pa:
                # Once placed, a page is never displaced again: every later
                # target frame is distinct and later sources can't be this
                # frame, so the loop lands exactly on ``desired``.
                self.remap.swap_physical(current_pa, target_pa)
        after = self.remap.mapping()

        changed_frames = [
            after[la] for la in range(self.remap.n_pages) if after[la] != before[la]
        ]
        for frame in changed_frames:
            self._frame_writes[frame] += 1
        if changed_frames:
            self._count_swap(len(changed_frames))
        self.swap_phases_completed += 1
        return changed_frames
