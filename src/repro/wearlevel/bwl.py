"""Bloom-filter based dynamic wear leveling [Yun et al., DATE'12].

The paper's state-of-the-art PV-aware baseline ("BWL").  Instead of a
full write number table, BWL identifies hot logical addresses with a
counting Bloom filter and dynamically adapts its detection threshold so
phase lengths track the workload.  At each swap point:

* detected-hot logical pages migrate onto the frames with the most
  *remaining life* (tested endurance minus the controller's count of
  writes issued to the frame) — remaining-life placement is what rotates
  a persistently hot page across strong frames instead of pinning it to
  one;
* detected-cold logical pages — *observed* addresses whose Bloom estimate
  stayed at or below the cold threshold, tracked in a bounded
  cold-candidate queue — migrate onto the least-remaining-life frames;
* the hot filter is cleared and a new detection phase begins (wear
  state persists, as wear does).

Per demand write the hardware probes the Bloom filters and the cold/hot
list — the per-write overhead that makes BWL the slowest scheme in the
paper's Figure 9.

Like WRL, BWL trusts that the write distribution observed during
detection persists afterwards; the inconsistent-write attack inverts the
distribution right after the swap and grinds the weakest frames down
("PCM adopting BWL breaks down in 98 seconds").
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Sequence

import numpy as np

from ..bloom.counting_bloom import CountingBloomFilter
from ..config import BWLConfig
from ..pcm.array import PCMArray
from ..rng.streams import derive_seed
from ..tables.endurance_table import EnduranceTable
from ..tables.remap import RemappingTable
from .base import WearLeveler


class BloomWearLeveling(WearLeveler):
    """Bloom-filter based PV-aware wear leveling with dynamic thresholds."""

    name = "bwl"

    def __init__(
        self,
        array: PCMArray,
        config: BWLConfig = BWLConfig(),
        seed: int = 0,
    ):
        super().__init__(array)
        n = array.n_pages
        self.config = config
        self.remap = RemappingTable(n)
        self.endurance_table = EnduranceTable(array.endurance)
        #: Controller-side per-frame write counters (remaining-life input).
        self._frame_writes = np.zeros(n, dtype=np.int64)
        self._endurance = self.endurance_table.as_array()

        self.hot_filter = CountingBloomFilter(
            config.bloom_bits, config.bloom_hashes, seed=derive_seed(seed, "bwl-hot")
        )
        #: Probe positions of every logical page (write_batch's window scan).
        self._probes = self.hot_filter.probe_table(n)
        #: Dynamic hot-detection threshold (write-count estimate).
        self.hot_threshold = 4
        self.cold_threshold = config.cold_threshold
        self._hot_list: List[int] = []
        self._hot_set = set()
        self._target_hot = max(1, int(config.hot_fraction * n))
        self._cold_queue = deque(maxlen=4 * self._target_hot)
        self._cold_set = set()
        self._detection_writes = 0
        self._min_phase_writes = max(1, int(config.prediction_writes_per_page * n))
        self._max_phase_writes = self._min_phase_writes * max(
            2, int(config.running_multiplier)
        )
        self.swap_phases_completed = 0

    def translate(self, logical: int) -> int:
        self.check_logical(logical)
        return self.remap.lookup(logical)

    def fault_surface(self):
        """BWL's injectable SRAM state: the remapping table.

        The Bloom filters and cold/hot lists are soft *heuristic* state
        — corruption there only mispredicts heat, never misroutes an
        access — so the RT is the structure whose integrity actually
        carries correctness, scrubbing from its inverse array with the
        identity-mapping fail-safe.
        """
        from ..pcm.softerrors import BitTarget

        remap = self.remap
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
        }

    def fault_fail_safe(self) -> None:
        """Graceful degradation: collapse the RT to identity mapping."""
        self.remap.reset_identity()
        self.fault_degraded = True

    def remaining_life(self) -> np.ndarray:
        """Per-frame remaining life: tested endurance minus issued writes."""
        return self._endurance - self._frame_writes

    def write(self, logical: int) -> int:
        self.check_logical(logical)
        physical = self.remap.lookup(logical)
        self.array.write(physical)
        self._frame_writes[physical] += 1
        self._count_demand()
        writes = 1

        # Per-write hardware path: probe and update the filters, check the
        # hot list (the Figure-9 overhead).
        self.hot_filter.insert(logical)
        self._detection_writes += 1
        if logical not in self._hot_set:
            estimate = self.hot_filter.estimate(logical)
            if estimate >= self.hot_threshold:
                self._hot_set.add(logical)  # twl: allow(TWL008) reason=set mirror of _hot_list; _restore_state rebuilds it from the snapshotted list
                self._hot_list.append(logical)
                self._cold_set.discard(logical)  # twl: allow(TWL008) reason=set mirror of _cold_queue; _restore_state rebuilds it from the snapshotted queue
            elif estimate <= self.cold_threshold and logical not in self._cold_set:
                # An observed-but-cold address: a candidate for the
                # least-remaining-life frames at the next swap point.
                if len(self._cold_queue) == self._cold_queue.maxlen:
                    evicted = self._cold_queue[0]
                    self._cold_set.discard(evicted)
                self._cold_queue.append(logical)
                self._cold_set.add(logical)

        if self._should_swap():
            writes += self._swap_phase()
        return writes

    def write_batch(
        self, addresses: Sequence[int], stop_at: Optional[int] = None
    ) -> np.ndarray:
        """Batch path: window scans of the heuristic, vectorized device writes.

        Within a detection phase the Bloom counters only grow and
        saturate exactly, so each write's estimate is a pure function of
        the inserts before it.  :meth:`_next_segment` therefore computes
        a whole window's estimates, hot-list adds and swap predicates as
        arrays and commits the heuristic state up to the first swap
        trigger; :meth:`_serve_segments` issues the trigger-free prefix
        as one :meth:`~repro.pcm.array.PCMArray.apply_batch` call plus a
        bincount into the frame-write counters, and runs the swap phase
        at the trigger.  Heuristic state scanned ahead of a mid-segment
        failure is post-failure drift only — the run is over, and
        nothing observable (stats, wear, result) reads it.
        """
        return self._serve_segments(addresses, stop_at)

    def _next_segment(self, seq: np.ndarray, start: int, plan):
        """The per-write heuristic updates for ``seq[start:stop]``, at once.

        Replays :meth:`write`'s filter, hot-list, cold-queue and
        :meth:`_should_swap` steps up to and including the first swap
        trigger and returns the segment's cut.  The window ends at the
        next phase-length bound, where a trigger is due or likely, so
        little is scanned past a trigger.
        """
        detection = self._detection_writes
        bound = (
            self._min_phase_writes
            if detection < self._min_phase_writes
            else self._max_phase_writes
        )
        window = seq[start : start + max(1, bound - detection)]
        size = int(window.size)
        probes = self._probes[window]
        estimates = self.hot_filter.running_estimates(probes)
        threshold = self.hot_threshold
        hot_mask = np.zeros(self.logical_pages, dtype=bool)
        hot_mask[np.fromiter(self._hot_set, dtype=np.int64)] = True
        fresh = ~hot_mask[window]
        # Estimates never fall within a phase, so a key's first crossing
        # of the threshold is its hot-list add; later writes find it hot.
        crossing = np.flatnonzero(fresh & (estimates >= threshold))
        _, first = np.unique(window[crossing], return_index=True)
        adds = np.sort(crossing[first])
        grown = np.zeros(size, dtype=np.int64)
        grown[adds] = 1
        hot_count = len(self._hot_list) + np.cumsum(grown)
        detected = detection + np.arange(1, size + 1)
        trigger = np.flatnonzero(
            (hot_count >= self._target_hot)
            | ((detected >= self._min_phase_writes) & (hot_count > 0))
            | (detected >= self._max_phase_writes)
        )
        stop = int(trigger[0]) + 1 if trigger.size else size

        self.hot_filter.insert_rows(probes[:stop])
        self._detection_writes += stop
        # Cold-queue attempts: writes of not-yet-hot keys whose estimate
        # stayed at or below the cold threshold.  Evictions make them
        # order-dependent, so they replay one by one.
        cold = fresh[:stop] & (estimates[:stop] < threshold)
        cold &= estimates[:stop] <= self.cold_threshold
        attempts = window[:stop][cold]
        cold_queue = self._cold_queue
        cold_set = self._cold_set
        capacity = cold_queue.maxlen
        for logical in attempts.tolist():  # twl: allow(TWL006) reason=cold-queue evictions are order-dependent; only eligible writes loop, doing set/deque work and no hashing
            if logical not in cold_set:
                if len(cold_queue) == capacity:
                    cold_set.discard(cold_queue[0])
                cold_queue.append(logical)
                cold_set.add(logical)
        # A key turns hot after its cold attempts, so discarding it from
        # the cold set afterwards ends in the serial state.
        hot = window[adds[adds < stop]].tolist()
        self._hot_list.extend(hot)
        self._hot_set.update(hot)
        cold_set.difference_update(hot)
        # The trigger write's state is now the serial state right before
        # its _should_swap, which applies the threshold side effect.
        frames = self.remap.mapping_array()[window[:stop]]
        return start + stop, frames, bool(trigger.size) and self._should_swap()

    def _commit_segment(self, seq, start, end, frames, plan) -> None:
        self._frame_writes += np.bincount(frames, minlength=self._frame_writes.size)

    def _segment_event(self, logical: int) -> int:
        return self._swap_phase()

    def _snapshot_state(self):
        # _hot_set / _cold_set are derivable from the ordered lists; the
        # queue and hot list are stored in insertion order so eviction
        # and migration priority replay exactly.
        return {
            "cold_queue": list(self._cold_queue),
            "detection_writes": self._detection_writes,
            "frame_writes": self._frame_writes.copy(),
            "hot_filter": self.hot_filter.snapshot(),
            "hot_list": list(self._hot_list),
            "hot_threshold": self.hot_threshold,
            "remap": self.remap.snapshot(),
            "swap_phases_completed": self.swap_phases_completed,
        }

    def _restore_state(self, state):
        self._frame_writes[:] = np.asarray(state["frame_writes"], dtype=np.int64)
        self.remap.restore(state["remap"])
        self.hot_filter.restore(state["hot_filter"])
        self.hot_threshold = int(state["hot_threshold"])
        self._detection_writes = int(state["detection_writes"])
        self.swap_phases_completed = int(state["swap_phases_completed"])
        # Rebind fresh containers (_next_segment aliases them per window and
        # _swap_phase replaces them): sets are rebuilt from the lists.
        self._hot_list = [int(la) for la in state["hot_list"]]
        self._hot_set = set(self._hot_list)
        self._cold_queue = deque(
            (int(la) for la in state["cold_queue"]), maxlen=4 * self._target_hot
        )
        self._cold_set = set(self._cold_queue)

    def _should_swap(self) -> bool:
        """Swap when enough hot pages are known, bounded by phase length.

        The dynamic-threshold mechanism: if the hot list fills before the
        minimum phase length, detection was too eager and the threshold is
        raised; if the maximum phase length elapses first, it is lowered.
        """
        if len(self._hot_list) >= self._target_hot:
            if self._detection_writes < self._min_phase_writes:
                self.hot_threshold = min(self.hot_threshold * 2, 1 << 12)
            return True
        if self._detection_writes >= self._min_phase_writes and self._hot_list:
            # Enough evidence and at least one hot page to migrate: swap
            # now rather than letting a narrow hot set (e.g. a single
            # hammered page) wear its frame for the whole max phase.
            return True
        if self._detection_writes >= self._max_phase_writes:
            self.hot_threshold = max(2, self.hot_threshold // 2)
            return True
        return False

    def _cold_pages(self, count: int) -> List[int]:
        """Up to ``count`` cold-queue addresses that never became hot.

        Membership is decided at observation time (estimate at or below
        the cold threshold when written); pages that later crossed the
        hot threshold were already evicted via the hot set.  Newest
        observations first: the most recently confirmed-cold pages are
        the best candidates for the worn frames.
        """
        cold: List[int] = []
        for candidate in reversed(self._cold_queue):
            if len(cold) == count:
                break
            if candidate in self._hot_set:
                continue
            cold.append(candidate)
        return cold

    def _migrate(self, logical: int, target_frame: int, frames: List[int]) -> None:
        """Swap ``logical`` onto ``target_frame``.

        Appends the swap's two page writes to ``frames`` (none when the
        page already sits there) for :meth:`_swap_phase` to issue.
        """
        current = self.remap.lookup(logical)
        if current != target_frame:
            self.remap.swap_physical(current, target_frame)
            frames += (current, target_frame)

    def _swap_phase(self) -> int:
        """Hot pages to high-remaining-life frames, cold to low."""
        frames: List[int] = []
        remaining = self.remaining_life()
        order = np.argsort(remaining, kind="stable")
        # Hot pages take the freshest frames, hottest page first.
        fresh_iter = iter(reversed(order.tolist()))
        for la in self._hot_list[: self._target_hot]:
            target = next(fresh_iter)
            self._migrate(la, target, frames)
        # Cold pages take the most-worn frames — except frames whose
        # resident looks never-written (Bloom estimate zero): displacing
        # an idle page with an observed-cold one would heat the frame.
        # Bloom collisions occasionally make idle residents look written,
        # so the guard is porous exactly the way the hardware's would be.
        cold = self._cold_pages(self._target_hot)
        cold_index = 0
        for target in order.tolist():  # twl: allow(TWL006) reason=once-per-epoch rebalance
            if cold_index == len(cold):
                break
            resident = self.remap.inverse(target)
            if resident not in self._hot_set and (
                self.hot_filter.estimate(resident) == 0
            ):
                continue
            self._migrate(cold[cold_index], target, frames)
            cold_index += 1
        cost = len(frames)
        if cost:
            # Nothing in the phase reads wear, so its migration writes
            # go to the device at once, in order.  Past a failure they
            # keep counting, as serial writes do.
            issued = np.array(frames, dtype=np.int64)
            applied = self.array.apply_batch(issued)
            if applied < cost:
                self.array.apply_batch(issued[applied:])
            self._frame_writes += np.bincount(issued, minlength=self._frame_writes.size)
            self._count_swap(cost)
        self.swap_phases_completed += 1
        # New detection phase (wear state persists).
        self.hot_filter.clear()
        self._hot_list = []
        self._hot_set = set()
        self._cold_queue.clear()
        self._cold_set = set()
        self._detection_writes = 0
        return cost
