"""Toss-up Wear Leveling — the full engine (paper Figure 5).

Write flow per demand write to logical page LA:

1. The write counter table (WCT) counts the write; only when the counter
   reaches the toss-up interval does the TWL engine activate
   (interval-triggered toss-up, §4.3) — otherwise the write goes straight
   through the remapping table.
2. On activation: the SWPT yields LA's partner, the RT maps both to
   physical frames, the ET supplies their endurance, and the toss-up
   picks the frame with probability proportional to endurance.
3. The swap judge either writes directly or performs the two-write
   "swap-then-write" and exchanges the pair's RT entries.
4. Independently, every ``inter_pair_swap_interval`` demand writes the
   written page's frame is exchanged with the frame of a uniformly random
   logical page (inter-pair swap, §4.1), distributing writes *between*
   pairs; with ``maintain_physical_pairs`` the SWPT is conjugated so the
   physical strong-weak pairs stay intact.

TWL never predicts future write intensity — the property that makes it
immune to the inconsistent-write attack.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..config import TWLConfig
from ..errors import SimulationError
from ..pcm.array import PCMArray
from ..rng.streams import derive_seed
from ..rng.xorshift import XorShift32
from ..tables.endurance_table import EnduranceTable
from ..tables.pair_table import PairTable
from ..tables.remap import RemappingTable
from ..tables.write_counter import WriteCounterTable
from ..wearlevel.base import WearLeveler
from .pairing import build_pair_table
from .swap_judge import SwapJudge
from .tossup import TossUp


def _cumcount(values: np.ndarray) -> np.ndarray:
    """Occurrences of ``values[i]`` strictly before index ``i``.

    Stable-sort grouping trick: sort values (stably), rank inside each
    group, scatter the ranks back to the original order.
    """
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    new_group = np.empty(values.size, dtype=bool)
    new_group[0] = True
    new_group[1:] = ordered[1:] != ordered[:-1]
    indices = np.arange(values.size)
    group_starts = indices[new_group]
    group_ids = np.cumsum(new_group) - 1
    ranks = indices - group_starts[group_ids]
    out = np.empty(values.size, dtype=np.int64)
    out[order] = ranks
    return out


class TossUpWearLeveling(WearLeveler):
    """The paper's Toss-up Wear Leveling engine."""

    name = "twl"

    def __init__(
        self,
        array: PCMArray,
        config: TWLConfig = TWLConfig(),
        seed: int = 0,
        pair_table: PairTable = None,
    ):
        super().__init__(array)
        n = array.n_pages
        self.config = config
        self.remap = RemappingTable(n)
        self.endurance_table = EnduranceTable(array.endurance)
        if pair_table is None:
            pair_table = build_pair_table(
                array.endurance, config.pairing, seed=derive_seed(seed, "twl-pairing")
            )
        elif len(pair_table) != n:
            raise ValueError(
                f"pair table covers {len(pair_table)} pages, array has {n}"
            )
        self.pair_table = pair_table
        self.write_counters = WriteCounterTable(
            n, bits=config.write_counter_bits, interval=config.toss_up_interval
        )
        self.toss_up = TossUp(rng_bits=config.rng_bits, seed=derive_seed(seed, "twl-rng"))
        self.swap_judge = SwapJudge()
        self._victim_rng = XorShift32(
            (derive_seed(seed, "twl-interpair") % 0xFFFF_FFFE) + 1
        )
        self._interpair_counter = 0
        self.toss_up_activations = 0
        self.inter_pair_swaps = 0

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def translate(self, logical: int) -> int:
        self.check_logical(logical)
        return self.remap.lookup(logical)

    def write(self, logical: int) -> int:
        self.check_logical(logical)
        writes = 0

        # Inter-pair swap: a global counter over demand writes.
        self._interpair_counter += 1
        if self._interpair_counter >= self.config.inter_pair_swap_interval:
            self._interpair_counter = 0
            writes += self._inter_pair_swap(logical)

        trigger = self.write_counters.record_write(logical)
        partner = self.pair_table.partner(logical)
        if trigger and partner != logical:
            writes += self._toss_up_write(logical, partner)
        else:
            self.array.write(self.remap.lookup(logical))
            writes += 1
        self._count_demand()
        return writes

    def write_batch(self, addresses, stop_at: Optional[int] = None) -> np.ndarray:
        """Batch path: plan every toss-up event, vectorize the rest.

        Most demand writes neither fire a toss-up (one in
        ``toss_up_interval`` writes to a page) nor an inter-pair swap
        (one in ``inter_pair_swap_interval`` demand writes).  The batch
        is cut into *windows* at inter-pair-swap boundaries; within a
        window the write counters move predictably — a page's counter
        after ``j`` writes is ``(start + j) % interval`` — so **all**
        toss-up trigger positions in the window follow from one modular
        comparison against the canonical counter array.  The
        straight-through stretches between events are served by one
        :meth:`PCMArray.apply_batch` plus one vectorized counter update
        each; only the event writes themselves (and the window-boundary
        write that fires the inter-pair swap) go through the exact
        scalar :meth:`write`.

        The modular prediction assumes every counter is below the
        interval, which :meth:`WriteCounterTable.record_write` maintains
        by construction; an injected fault can break it, so any window
        that starts with a corrupted counter is served scalar until the
        counter wraps back into range.
        """
        if stop_at is not None:
            # Stop-bounded batches are adaptive-attack segments, tens of
            # writes long: the inherited per-write loop serves them.
            return WearLeveler.write_batch(self, addresses, stop_at)
        seq = np.asarray(addresses, dtype=np.int64)
        if self.array.failed:
            return np.zeros(0, dtype=np.int64)
        n = self.remap.n_pages
        if seq.size and ((seq < 0).any() or (seq >= n).any()):
            bad = int(seq[(seq < 0) | (seq >= n)][0])
            self.check_logical(bad)
        out = np.ones(seq.size, dtype=np.int64)
        array = self.array
        counters = self.write_counters.values_array()
        interval = self.write_counters.interval
        # Checked once per batch: every in-batch counter update
        # (record_write wrap, modular bulk_record, force_trigger_next's
        # interval-1) keeps counters below the interval, so only an
        # external poke — impossible mid-batch — can break this.
        counters_sane = int(counters.max()) < interval
        # Lower bound on the minimum remaining endurance, maintained
        # across windows so the whole-window fast path (which applies a
        # window's writes out of order) only runs when no page can fail
        # inside the window.  Each demand write costs at most two
        # physical writes, the boundary write at most four.
        headroom = -1
        position = 0
        while position < seq.size:
            # Writes before the next inter-pair swap fires (the firing
            # write itself is served by the scalar path below).
            quiet = (
                self.config.inter_pair_swap_interval - self._interpair_counter - 1
            )
            limit = min(seq.size - position, quiet)
            if limit > 0:
                window = seq[position : position + limit]
                window_cost = 2 * limit + 4
                if headroom <= window_cost:
                    headroom = int((array.endurance - array.writes).min())
                if counters_sane:
                    served = self._serve_window(
                        window, out, position, headroom > window_cost
                    )
                else:
                    served = self._serve_scalar(window, out, position)
                headroom -= window_cost
                position += served
                if array.failed:
                    return out[:position]
            # The window-boundary write fires the inter-pair swap.
            if position < seq.size:
                out[position] = self.write(int(seq[position]))
                position += 1
                if array.failed:
                    return out[:position]
        return out

    def _serve_window(
        self, window: np.ndarray, out: np.ndarray, base: int, no_failure: bool = False
    ) -> int:
        """Serve one inter-pair-quiet window; return writes served.

        Computes the full toss-up event schedule up front (valid for the
        whole window: an event only resets its own counter to zero,
        which the modular formula already accounts for).  When the
        caller guarantees no page can fail inside the window
        (``no_failure``), the toss-up decisions themselves vectorize and
        the whole window collapses to one bulk apply
        (:meth:`_serve_window_fast`); otherwise it alternates vectorized
        straight-through runs with exact scalar event writes.
        """
        counters = self.write_counters.values_array()
        partners = self.pair_table.partners_array()
        interval = self.write_counters.interval
        # record_write triggers the j-th write to a page (1-based) iff
        # (counter + j) % interval == 0; triggers on self-paired pages
        # do not activate the engine and stay in the vectorized runs.
        # Duplicate-free windows (scan-like streams) skip the
        # occurrence ranking: every write is its page's first.
        s = np.sort(window)
        if window.size < 2 or not (s[1:] == s[:-1]).any():
            triggered = (counters[window] + 1) % interval == 0
            distinct = True
        else:
            occurrences = _cumcount(window)
            triggered = (counters[window] + occurrences + 1) % interval == 0
            distinct = False
        partners_w = partners[window]
        events = np.flatnonzero(triggered & (partners_w != window))
        if no_failure and not self.config.use_remaining_endurance:
            logicals = window[events]
            mates = partners_w[events]
            # Toss-up outcomes feed back into later events of the SAME
            # pair (a swap exchanges the pair's frames); events over
            # distinct pairs are independent.
            keys = np.sort(
                np.minimum(logicals, mates) * self.remap.n_pages
                + np.maximum(logicals, mates)
            )
            if keys.size < 2 or not (keys[1:] == keys[:-1]).any():
                return self._serve_window_fast(
                    window, events, logicals, mates, distinct, out, base
                )
        array = self.array
        write = self.write
        pos = 0
        for event in events.tolist():  # twl: allow(TWL006) reason=one per planned event
            run = event - pos
            if run > 0:
                served = self._serve_quiet_run(window[pos : pos + run])
                pos += served
                if served < run:  # failure inside the run
                    return pos
            out[base + pos] = write(int(window[event]))
            pos += 1
            if array.failed:
                return pos
        run = window.size - pos
        if run > 0:
            pos += self._serve_quiet_run(window[pos : pos + run])
        return pos

    def _serve_window_fast(
        self,
        window: np.ndarray,
        events: np.ndarray,
        logicals: np.ndarray,
        mates: np.ndarray,
        distinct: bool,
        out: np.ndarray,
        base: int,
    ) -> int:
        """Serve a whole window in one bulk apply, events included.

        Valid only when (a) no page can fail inside the window — device
        write *order* is then unobservable, so the batch may be applied
        out of order — (b) the toss-up reads static endurance, and (c)
        every event's pair is distinct, so no decision feeds back into
        another event's frames.  Each toss-up consumes exactly one RNG
        word, so the whole decision column is one batched draw compared
        against the vectorized fixed-point thresholds; remap swaps are
        then replayed onto the pre-gathered translation as per-pair tail
        patches.
        """
        rng = self.toss_up.rng
        n_events = int(events.size)
        alphas = rng.take_words(n_events)
        mapping = self.remap.mapping_array()
        endurance = self.endurance_table.values_array()
        frames = mapping[logicals]
        pframes = mapping[mates]
        own = endurance[frames]
        other = endurance[pframes]
        thresholds = (own << self.toss_up.rng_bits) // (own + other)
        chose_own = alphas < thresholds
        physical = mapping[window]
        swaps = np.flatnonzero(~chose_own)
        for k in swaps.tolist():  # twl: allow(TWL006) reason=per-swap remap patch, few per window
            pos = int(events[k])
            logical = int(logicals[k])
            mate = int(mates[k])
            tail = window[pos + 1 :]
            patch = physical[pos + 1 :]
            patch[tail == logical] = pframes[k]
            patch[tail == mate] = frames[k]
            self.remap.swap_logical(logical, mate)
        if swaps.size:
            # A swap event writes the migration frame first, then the
            # chosen frame — splice the extra write in after the event
            # (hand-rolled np.insert: the positions are pre-sorted).
            extra = int(swaps.size)
            full_seq = np.empty(physical.size + extra, dtype=np.int64)
            spliced = np.zeros(full_seq.size, dtype=bool)
            spliced[events[swaps] + 1 + np.arange(extra)] = True
            full_seq[spliced] = pframes[swaps]
            full_seq[~spliced] = physical
        else:
            full_seq = physical
        served = self.array.apply_batch(full_seq)
        if served != full_seq.size:
            raise SimulationError(
                "whole-window fast path ran under a failure-possible state"
            )
        if distinct:
            self.write_counters.bulk_record_distinct(window)
        else:
            self.write_counters.bulk_record(window)
        self.toss_up_activations += n_events
        toss = self.toss_up
        toss.decisions += n_events
        toss.chose_a += int(chose_own.sum())
        n_swapped = int(swaps.size)
        judge = self.swap_judge
        judge.direct += n_events - n_swapped
        judge.swapped += n_swapped
        self.swap_events += n_swapped
        self.swap_writes += n_swapped
        if n_swapped:
            out[base + events[swaps]] = 2
        self._interpair_counter += int(window.size)
        self.demand_writes += int(window.size)
        return int(window.size)

    def _serve_quiet_run(self, chunk: np.ndarray) -> int:
        """Apply a straight-through run in one vector step."""
        physical = self.remap.mapping_array()[chunk]
        served = self.array.apply_batch(physical)
        recorded = chunk if served == chunk.size else chunk[:served]
        self.write_counters.bulk_record(recorded)
        self._interpair_counter += served
        self.demand_writes += served
        return served

    def _serve_scalar(self, window: np.ndarray, out: np.ndarray, base: int) -> int:
        """Exact per-write fallback (corrupted-counter windows)."""
        write = self.write
        array = self.array
        pos = 0
        for logical in window.tolist():  # twl: allow(TWL006) reason=corrupt-counter fallback
            out[base + pos] = write(logical)
            pos += 1
            if array.failed:
                break
        return pos

    def _pair_endurance(self, frame: int) -> int:
        """Endurance feeding the toss-up probability for ``frame``."""
        if self.config.use_remaining_endurance:
            remaining = self.endurance_table.lookup(frame) - self.array.page_writes(frame)
            return max(1, remaining)
        return self.endurance_table.lookup(frame)

    def _toss_up_write(self, logical: int, partner: int) -> int:
        """Activated TWL engine: toss-up then swap judge (Figure 4)."""
        self.toss_up_activations += 1
        frame = self.remap.lookup(logical)
        partner_frame = self.remap.lookup(partner)
        endurance = self._pair_endurance(frame)
        partner_endurance = self._pair_endurance(partner_frame)

        if self.toss_up.choose_a(endurance, partner_endurance):
            chosen, not_chosen = frame, partner_frame
        else:
            chosen, not_chosen = partner_frame, frame

        plan = self.swap_judge.judge(frame, chosen, not_chosen)
        for target in plan.writes:
            self.array.write(target)
        if plan.remap_swapped:
            self.remap.swap_logical(logical, partner)
            self._count_swap(plan.physical_writes - 1)
        return plan.physical_writes

    def _inter_pair_swap(self, logical: int) -> int:
        """Exchange the written page's frame with a random page's frame."""
        n = self.remap.n_pages
        victim = self._victim_rng.next_below(n)
        if victim == logical:
            victim = (victim + 1) % n
        frame_a = self.remap.lookup(logical)
        frame_b = self.remap.lookup(victim)
        # Two page writes: each frame receives the other's data.
        self.array.write(frame_a)
        self.array.write(frame_b)
        self.remap.swap_logical(logical, victim)
        if self.config.maintain_physical_pairs:
            self.pair_table.exchange_roles(logical, victim)
        if self.config.toss_on_relocation:
            # Both pages landed on arbitrary frames of their (possibly
            # new) pairs; re-run the toss-up on their next writes.
            self.write_counters.force_trigger_next(logical)
            self.write_counters.force_trigger_next(victim)
        self.inter_pair_swaps += 1
        self._count_swap(2)
        return 2

    # ------------------------------------------------------------------
    # Mid-run persistence
    # ------------------------------------------------------------------
    def _snapshot_state(self):
        # The endurance table is format-time ROM (derivable from the
        # array); everything else the engine mutates is captured here.
        return {
            "inter_pair_swaps": self.inter_pair_swaps,
            "interpair_counter": self._interpair_counter,
            "pair_table": self.pair_table.snapshot(),
            "remap": self.remap.snapshot(),
            "swap_judge": self.swap_judge.snapshot(),
            "toss_up": self.toss_up.snapshot(),
            "toss_up_activations": self.toss_up_activations,
            "victim_rng": self._victim_rng.snapshot(),
            "write_counters": self.write_counters.snapshot(),
        }

    def _restore_state(self, state):
        self.inter_pair_swaps = int(state["inter_pair_swaps"])
        self._interpair_counter = int(state["interpair_counter"])
        self.pair_table.restore(state["pair_table"])
        self.remap.restore(state["remap"])
        self.swap_judge.restore(state["swap_judge"])
        self.toss_up.restore(state["toss_up"])
        self.toss_up_activations = int(state["toss_up_activations"])
        self._victim_rng.restore(state["victim_rng"])
        self.write_counters.restore(state["write_counters"])

    # ------------------------------------------------------------------
    # Fault surface
    # ------------------------------------------------------------------
    def fault_surface(self):
        """TWL's injectable SRAM state: RT, WCT, SWPT and both RNGs.

        The ET is deliberately absent: the paper stores tested
        endurance in ROM-like fashion (written once at format time),
        and the invariant checker treats any ET change as a violation
        rather than a recoverable fault.  Repair strategies per
        structure:

        * RT — scrub from the inverse array; identity-mapping fail-safe
          when the redundancy is gone too.
        * WCT — reset the counter (safe: the interval trigger merely
          fires early/late once).
        * SWPT — re-derive from the claimant entry, degrading to a
          self-pair when the page was self-paired.
        * RNG registers — reload the architectural seed / reset the
          counter (a reseeded RNG is still a valid RNG).
        """
        from ..pcm.softerrors import BitTarget

        remap = self.remap
        counters = self.write_counters
        pair_table = self.pair_table
        victim_rng = self._victim_rng
        toss_rng = self.toss_up.rng
        victim_reload = victim_rng.state

        def repair_wct(page: int) -> bool:
            counters.reset(page)
            return True

        def repair_victim_rng(_entry: int) -> bool:
            victim_rng.state = victim_reload
            return True

        def repair_toss_rng(_entry: int) -> bool:
            toss_rng._counter = 0
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
            "wct": BitTarget(
                name="wct",
                n_entries=counters.n_pages,
                entry_bits=counters.entry_bits,
                read=counters.value,
                write=counters.poke,
                repair=repair_wct,
            ),
            "swpt": BitTarget(
                name="swpt",
                n_entries=pair_table.n_pages,
                entry_bits=pair_table.entry_bits,
                read=pair_table.raw_partner,
                write=pair_table.poke_partner,
                repair=pair_table.repair_entry,
            ),
            "rng": BitTarget(
                name="rng",
                n_entries=1,
                entry_bits=32,
                read=lambda _entry: victim_rng.state,
                write=lambda _entry, value: setattr(
                    victim_rng, "state", value
                ),
                repair=repair_victim_rng,
            ),
            "tossrng": BitTarget(
                name="tossrng",
                n_entries=1,
                entry_bits=self.toss_up.rng_bits,
                read=lambda _entry: toss_rng._counter,
                write=lambda _entry, value: setattr(
                    toss_rng, "_counter", value
                ),
                repair=repair_toss_rng,
            ),
        }

    def fault_fail_safe(self) -> None:
        """Graceful degradation: collapse the RT to identity mapping.

        Invoked when a detected RT corruption cannot be repaired from
        the inverse array.  Address translation stays correct (the
        identity map serves every access) at the cost of leveling, and
        ``fault_degraded`` records the downgrade for result tables.
        """
        self.remap.reset_identity()
        self.fault_degraded = True

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def toss_up_swap_ratio(self) -> float:
        """Toss-up swaps per demand write (the Figure-7a metric)."""
        if self.demand_writes == 0:
            return 0.0
        return self.swap_judge.swapped / self.demand_writes

    def stats(self):
        base = super().stats()
        base.update(
            {
                "toss_up_activations": float(self.toss_up_activations),
                "toss_up_swaps": float(self.swap_judge.swapped),
                "toss_up_swap_ratio": self.toss_up_swap_ratio(),
                "inter_pair_swaps": float(self.inter_pair_swaps),
            }
        )
        return base
