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

from heapq import heappop, heappush
from typing import Optional

import numpy as np

from ..config import TWLConfig
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


def _group(values: np.ndarray):
    """Group ``values`` by value, request order kept inside each group.

    Returns ``(order, ordered, starts, ranks)``: the stable argsort, the
    sorted values, where each group starts in them, and each value's
    occurrence number (how many equal values precede it).
    """
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    new_group = np.empty(values.size, dtype=bool)
    new_group[0] = True
    new_group[1:] = ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(new_group)
    ranks = np.empty(values.size, dtype=np.int64)
    ranks[order] = np.arange(values.size) - starts[np.cumsum(new_group) - 1]
    return order, ordered, starts, ranks


class _SpanLog:  # twl: allow(TWL008) reason=transient record of one span walk; never outlives the write_batch call that made it, nothing to resume
    """A span walk's planned writes, event tallies and undo log.

    Both walks of :meth:`TossUpWearLeveling.write_batch` decide a span's
    events in request order (:meth:`TossUpWearLeveling._span_boundary`,
    :meth:`TossUpWearLeveling._span_toss`), changing the RT, the SWPT
    and both RNG registers as they go.  Every change of the RT first
    gathers the frames of the span's demand writes since the previous
    one (:meth:`gather`); migration writes are logged beside them
    (:meth:`migrate`).  :meth:`TossUpWearLeveling._commit_span` applies
    them all or nothing, or undoes the log.  The planned writes take one
    of two forms:

    * the event walk's: numpy slices of the span's frames (``pieces``)
      and a list of migration frames, for one ``apply_batch``;
    * the short walk's (``tally`` set): a ``{frame: writes}`` dict for
      one sparse ``apply_write_counts``.  The walk counts each request's
      demand write in ``since`` (page -> demand writes since the last
      RT change) once the request's events are decided, so ``since``
      holds exactly the requests before the current one, and a gather
      folds it into ``tally`` through the RT of that moment.  The
      toss-up of ``use_remaining_endurance`` reads a frame's pending
      wear from ``tally`` after a gather.

    The undo log: a repeated ``swap_logical`` restores the forward RT
    exactly (and the inverse wherever the RT is consistent, which only
    an unprotected soft error breaks; nothing on the write path reads
    the inverse).  ``exchange_roles`` undoes itself only on a consistent
    SWPT, so the table is copied instead (``roles``), before the span's
    first boundary.
    """

    def __init__(
        self,
        span,
        tally,
        *,
        mapping,
        partners,
        endurance,
        next_word,
        rng_bits,
        swap_logical,
        victim_state,
        toss_state,
    ):
        self.span = span
        self.tally = tally
        # The live RT and SWPT, the ET, the toss-up's word source and
        # width, and the RT's swap.
        self.mapping = mapping
        self.partners = partners
        self.endurance = endurance
        self.next_word = next_word
        self.rng_bits = rng_bits
        self.swap_logical = swap_logical
        self.victim_state = victim_state
        self.toss_state = toss_state
        self.since = {}
        self.start = 0  # first request whose frame is not gathered yet
        self.pieces = []
        self.migrations = []
        self.swapped = []
        self.roles = None
        self.activations = self.swaps = self.boundaries = 0

    def gather(self, pos: int) -> None:
        """Gather the frames of the requests before ``pos`` (with a
        tally, ``since`` holds exactly those requests)."""
        tally = self.tally
        if tally is None:
            self.pieces.append(self.mapping[self.span[self.start : pos]])
            self.start = pos
            return
        since = self.since
        if since:
            mapping = self.mapping
            for page, writes in since.items():
                frame = int(mapping[page])
                tally[frame] = tally.get(frame, 0) + writes
            since.clear()

    def migrate(self, *frames: int) -> None:
        """Record one migration write to each of ``frames``."""
        tally = self.tally
        if tally is None:
            self.migrations.extend(frames)
            return
        for frame in frames:
            tally[frame] = tally.get(frame, 0) + 1


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
        """Batch path: decide every toss-up and inter-pair event in a walk.

        Most demand writes neither fire a toss-up (one in
        ``toss_up_interval`` writes to a page) nor an inter-pair swap
        (one in ``inter_pair_swap_interval`` demand writes).  A batch is
        cut into spans; each span's events are decided in request order
        by one of two walks, and its writes are committed guard-then-
        commit (:meth:`_commit_span`): one all-or-nothing apply that
        commits the span only if no frame reaches its endurance in it,
        or else leaves the array untouched while the walk is undone.
        Each write is served by one of three tiers:

        * **event walk** (:meth:`_serve_span`) — a span without a stop
          or with one above 4: between two re-phasings a page's counter
          after ``j`` of its writes is ``(start + j) % interval``, so the
          toss-up triggers follow from one modular comparison against
          the counter array, the inter-pair boundaries are arithmetic in
          the global demand count, a Python step is paid per event, not
          per write, and one :meth:`PCMArray.apply_batch` commits;
        * **short walk** (:meth:`_walk_span`) — a span whose stop is at
          most 4 (so it ends by the next boundary; a stop of 1 ends it
          at its first request), every span under
          ``use_remaining_endurance``, and a span that starts with a
          corrupted counter, walked to the next boundary: the modular
          prediction assumes every counter is below the interval, which
          :meth:`WriteCounterTable.record_write` maintains by
          construction and an injected fault can break, while the short
          walk follows ``record_write``'s wrap.  One Python step per
          request, only as far as the stop, with no planning pass; it
          tallies its writes per frame in dicts, and one sparse
          :meth:`PCMArray.apply_write_counts` commits; its toss-ups can
          read the endurance left after the span's pending writes;
        * **per-write** — the inherited loop of :meth:`write` serves
          only the rest of a batch whose span the guard rejected (the
          batch that wears a page out, once per run).

        With ``stop_at``, the batch ends after the first request that
        performs that many physical writes: only a toss-up swap (two
        writes) or a boundary write (three or four) can, so a span is
        cut right after the request that reaches ``stop_at``; with
        ``stop_at`` <= 4 a span reaches no further than the next
        boundary.
        """
        seq = np.asarray(addresses, dtype=np.int64)
        if self.array.failed:
            return np.zeros(0, dtype=np.int64)
        self.check_logical_batch(seq)
        # Each request performs at least one write, so any stop below 2
        # falls on the first request.
        stop = max(stop_at, 1) if stop_at else 0
        # A boundary performs three or four writes, so a span with a stop
        # of at most 4 seldom outlives the next one: it is walked no
        # further than that boundary, and only as far as the stop.
        short = 0 < stop <= 4
        remaining = self.config.use_remaining_endurance
        counters = self.write_counters
        out = np.ones(seq.size, dtype=np.int64)
        interval = self.config.inter_pair_swap_interval
        position = 0
        while position < seq.size:
            end = seq.size
            # A corrupted counter breaks the event walk's trigger
            # prediction.  Only an external poke, impossible mid-span,
            # can put a counter there.
            corrupted = not (short or remaining) and (
                int(counters.values_array().max()) >= counters.interval
            )
            if short or corrupted:
                end = min(end, position + interval - self._interpair_counter)
            if stop == 1:
                end = position + 1
            if short or remaining or corrupted:
                served = self._walk_span(seq[position:end], out, position, stop)
            else:
                served = self._serve_span(seq[position:end], out, position, stop)
            if not served:
                # A frame would wear out inside the span: the per-write
                # loop serves the rest and stops at the failing write.
                rest = WearLeveler.write_batch(self, seq[position:], stop_at)
                out[position : position + rest.size] = rest
                return out[: position + rest.size]
            position += served
            # A committed span ends early only at a stop, which is then
            # its last served request.
            if stop and out[position - 1] >= stop:
                return out[:position]
        return out

    def _walk_span(
        self, span: np.ndarray, out: np.ndarray, base: int, stop: int
    ) -> int:
        """Short tier: walk a span request by request, up to its stop.

        Each request is decided as :meth:`write` decides it: the global
        inter-pair counter may fire a boundary (which, with
        ``toss_on_relocation``, re-phases both pages as
        :meth:`WriteCounterTable.force_trigger_next` does), then the
        page's counter is bumped with :meth:`WriteCounterTable.record_write`'s
        wrap, and a trigger runs the toss-up.  The events themselves and
        the commit are shared with :meth:`_serve_span`
        (:meth:`_span_boundary`, :meth:`_span_toss`,
        :meth:`_commit_span`); the accounting is in dicts, not numpy
        slices: each request's demand write is counted per page until
        the next RT change folds it into the span's ``{frame: writes}``
        tally (:class:`_SpanLog`), and counters are kept per page and
        written back with :meth:`WriteCounterTable.assign` only after the
        commit.  Returns the requests served, or 0 when the guard
        rejected the span, which is then undone.
        """
        log = self._open_span(span, {})
        since = log.since
        counters_table = self.write_counters
        toss_interval = counters_table.interval
        swap_interval = self.config.inter_pair_swap_interval
        relocate = self.config.toss_on_relocation
        first = counters_table.values_array()[span].tolist()
        counters = {}  # page -> its counter after the walk's writes
        boundary = self._interpair_counter
        cut = span.size
        for pos, page in enumerate(span.tolist()):  # twl: allow(TWL006) reason=short walk: spans with a stop of at most 4 or a corrupted counter, which end by the next boundary, and use_remaining_endurance, whose toss-ups read the wear of the moment
            boundary += 1
            value = counters.get(page, first[pos]) + 1
            if boundary < swap_interval and value < toss_interval:
                # No event: one direct write.
                counters[page] = value
                since[page] = since.get(page, 0) + 1
                continue
            count = 1
            if boundary >= swap_interval:
                boundary = 0
                victim = self._span_boundary(log, page, pos)
                count = 3
                if relocate:
                    counters[victim] = toss_interval - 1
                    value = toss_interval
            if value >= toss_interval:
                value = 0
                count += self._span_toss(log, page, pos)
            counters[page] = value
            since[page] = since.get(page, 0) + 1
            if count > 1:
                out[base + pos] = count
                if stop and count >= stop:
                    cut = pos + 1
                    break
        if not self._commit_span(log, cut):
            return 0
        counters_table.assign(counters)
        return cut

    def _serve_span(
        self, span: np.ndarray, out: np.ndarray, base: int, stop: int
    ) -> int:
        """Event walk: serve a span in one apply, every event included.

        Valid only when (a) no page fails inside the span — device write
        *order* is then unobservable, so the span may be applied out of
        order — and (b) the toss-up reads static endurance.  The feedback
        between events is then confined to the tables, so the events are
        decided in request order inside the planner, one heap entry
        each:

        * an **inter-pair boundary** (:meth:`_span_boundary`) draws
          its victim as :meth:`_inter_pair_swap` does, writes both
          frames, exchanges them in the RT and conjugates the SWPT with
          ``maintain_physical_pairs``; with ``toss_on_relocation`` the
          walk *re-phases* both pages: a page's counter is ``(offset +
          served occurrences) % interval``, and the force gives it a new
          offset whose trigger positions are a stride-``interval`` slice
          of the page's positions, pushed one at a time onto the event
          heap;
        * a **toss-up trigger** (checked against its page's current
          offset, so entries of a re-phased page go stale) reads both
          frames from the live RT and the partner from the live SWPT,
          and draws exactly one word as :meth:`TossUp.choose_a` would
          (:meth:`_span_toss`).

        When a request reaches ``stop`` writes, the span is cut right
        after it, before the next event draws a word.  Condition (a) is
        checked after the walk (:meth:`_commit_span`), which returns 0
        for a rejected span; counters end at ``(offset + occurrences) %
        interval``, written only after the commit.
        """
        size = int(span.size)
        n = self.remap.n_pages
        counters = self.write_counters
        start_counters = counters.values_array()
        toss_interval = counters.interval
        swap_interval = self.config.inter_pair_swap_interval
        relocate = self.config.toss_on_relocation
        order, ordered, starts, ranks = _group(span)
        # Events as heap keys (2 * position + kind) * n + page: kind 0
        # is an inter-pair boundary, served before its request's demand
        # write; kind 1 a toss-up trigger.  Each boundary pushes the
        # next one.
        triggers = np.flatnonzero(
            (start_counters[span] + ranks + 1) % toss_interval == 0
        )
        heap = ((2 * n) * triggers + span[triggers] + n).tolist()
        boundary = swap_interval - self._interpair_counter - 1
        if boundary < size:
            heappush(heap, 2 * n * boundary + int(span[boundary]))
            if relocate:
                # (page, position) sorts the span by page, then request.
                keyed = ordered * size + order
        log = self._open_span(span, None)
        boundary_event, toss_event = self._span_boundary, self._span_toss
        # Re-phased page -> (counter offset, its slice of ``ordered``).
        rephased = {}
        current, count = -1, 0  # request being served, its writes so far
        last_toss = -1
        cut = size
        # One iteration per planned event (boundaries, triggers, pushed
        # re-phased triggers), not per write.
        while heap:
            slot, page = divmod(heappop(heap), n)
            pos = slot >> 1
            if pos != current:
                if stop and count >= stop:
                    cut = current + 1
                    break
                current, count = pos, 1
            if not slot & 1:
                victim = boundary_event(log, page, pos)
                if relocate:
                    # force_trigger_next on both pages: the next write
                    # of each (sorted index ``at``) gets a new offset.
                    bounds = keyed.searchsorted(
                        [page * size, page * size + pos, page * size + size,
                         victim * size, victim * size + pos, victim * size + size]
                    ).tolist()
                    for moved, low, at, high in (
                        (page, *bounds[:3]), (victim, *bounds[3:])
                    ):
                        offset = (low - at - 1) % toss_interval
                        if moved in rephased:
                            previous = rephased[moved][0]
                        else:
                            previous = int(start_counters[moved])
                        if offset != previous:
                            rephased[moved] = (offset, low, high)
                            if at < high:
                                heappush(heap, (2 * int(order[at]) + 1) * n + moved)
                count += 2
                out[base + pos] = count
                boundary = pos + swap_interval
                if boundary < size:
                    heappush(heap, 2 * n * boundary + int(span[boundary]))
                continue
            if pos <= last_toss:
                continue  # a duplicate of a trigger already served
            entry = rephased.get(page)
            if entry is not None:
                offset, low, high = entry
                rank = int(ranks[pos])
                if (offset + rank + 1) % toss_interval:
                    continue  # stale: the page was re-phased
                following = low + rank + toss_interval
                if following < high:
                    heappush(heap, (2 * int(order[following]) + 1) * n + page)
            last_toss = pos
            if toss_event(log, page, pos):
                count += 1
                out[base + pos] = count
        else:
            if stop and count >= stop:
                cut = current + 1
        if not self._commit_span(log, cut):
            return 0
        if rephased:
            forced = np.array(list(rephased), dtype=np.int64)
            offsets = np.array([offset for offset, _, _ in rephased.values()])
            shifts = offsets - start_counters[forced]
        counters.bulk_advance(ordered[starts], np.add.reduceat(order < cut, starts))
        if rephased:
            # A re-phased page ends at (offset + occurrences) % interval.
            counters.bulk_advance(forced, shifts % toss_interval)
        return cut

    def _open_span(self, span: np.ndarray, tally: Optional[dict]) -> _SpanLog:
        """A fresh log for a walk over ``span``, holding the undo state;
        ``tally`` is the short walk's empty ``{frame: writes}`` dict, or
        None for the event walk."""
        rng = self.toss_up.rng
        return _SpanLog(
            span,
            tally,
            mapping=self.remap.mapping_array(),
            partners=self.pair_table.partners_array(),
            endurance=self.endurance_table.values_array(),
            next_word=rng.next_word,
            rng_bits=self.toss_up.rng_bits,
            swap_logical=self.remap.swap_logical,
            # The walk changes only the toss-up's RNG register; its
            # decision counts are added at the commit.
            victim_state=self._victim_rng.state,
            toss_state=rng.snapshot(),
        )

    def _span_boundary(self, log: _SpanLog, page: int, pos: int) -> int:
        """The inter-pair swap of :meth:`_inter_pair_swap` at request
        ``pos`` of a walked span, before its demand write; returns the
        victim (the walk re-phases both pages)."""
        n = self.remap.n_pages
        victim = self._victim_rng.next_below(n)
        if victim == page:
            victim = (victim + 1) % n
        mapping = log.mapping
        log.gather(pos)
        log.migrate(int(mapping[page]), int(mapping[victim]))
        log.swap_logical(page, victim)
        log.swapped.append((page, victim))
        if self.config.maintain_physical_pairs:
            if log.roles is None:
                log.roles = self.pair_table.snapshot()
            self.pair_table.exchange_roles(page, victim)
        log.boundaries += 1
        return victim

    def _span_toss(self, log: _SpanLog, page: int, pos: int) -> bool:
        """The toss-up of a triggered write at request ``pos`` of a
        walked span; True when it swapped (one extra write).

        Reads both frames from the live RT and the partner from the live
        SWPT, and draws exactly one word as :meth:`TossUp.choose_a`
        would.  A swap-then-write gives the event's own frame the
        migration write; the demand write lands on the partner's frame,
        where the swapped RT sends the request when it is gathered.
        With ``use_remaining_endurance`` (always the short walk), both
        endurances drop by their frame's wear so far, the span's tallied
        writes included.
        """
        mate = int(log.partners[page])
        if mate == page:
            return False  # self-paired: a direct write
        log.activations += 1
        mapping = log.mapping
        frame = int(mapping[page])
        partner_frame = int(mapping[mate])
        endurance = log.endurance
        own = int(endurance[frame])
        other = int(endurance[partner_frame])
        if self.config.use_remaining_endurance:
            # _pair_endurance, with the span's writes not yet applied.
            log.gather(pos)
            tally = log.tally
            writes = self.array.writes
            own = max(1, own - int(writes[frame]) - tally.get(frame, 0))
            other = max(1, other - int(writes[partner_frame]) - tally.get(partner_frame, 0))
        if log.next_word() < (own << log.rng_bits) // (own + other):
            return False  # chose its own frame: a direct write
        log.gather(pos)
        log.migrate(frame)
        log.swap_logical(page, mate)
        log.swapped.append((page, mate))
        log.swaps += 1
        return True

    def _commit_span(self, log: _SpanLog, cut: int) -> bool:
        """Guard-then-commit the first ``cut`` requests of a walked span.

        The planned writes are applied all or nothing — the short walk's
        tally by one sparse :meth:`PCMArray.apply_write_counts`, the
        event walk's frames by one :meth:`PCMArray.apply_batch` — so one
        pass over the counts both decides the span and commits it.  When
        some frame would reach its endurance, the walk is undone — the RT
        swaps replayed in reverse, the SWPT and both RNG registers
        restored — and False is returned, with the statistics untouched;
        the caller writes the counters only after a commit.
        """
        log.gather(cut)
        array = self.array
        if log.tally is not None:
            applied = array.apply_write_counts(log.tally)
        else:
            pieces = log.pieces
            if log.migrations:
                pieces.append(np.array(log.migrations, dtype=np.int64))
            applied = array.apply_batch(np.concatenate(pieces))
        if not applied:
            for page, other in reversed(log.swapped):
                log.swap_logical(page, other)
            if log.roles is not None:
                self.pair_table.restore(log.roles)
            self._victim_rng.state = log.victim_state
            self.toss_up.rng.restore(log.toss_state)
            return False
        activations, swaps, bounds = log.activations, log.swaps, log.boundaries
        self.toss_up_activations += activations
        toss = self.toss_up
        toss.decisions += activations
        toss.chose_a += activations - swaps
        judge = self.swap_judge
        judge.direct += activations - swaps
        judge.swapped += swaps
        self.inter_pair_swaps += bounds
        self.swap_events += swaps + bounds
        self.swap_writes += swaps + 2 * bounds
        self._interpair_counter = (
            self._interpair_counter + cut
        ) % self.config.inter_pair_swap_interval
        self.demand_writes += cut
        return True

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
