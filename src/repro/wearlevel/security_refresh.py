"""Security Refresh [Seong et al., ISCA'10] (the paper's "SR" baseline).

Dynamically randomized address remapping.  The production design is a
two-level hierarchy of XOR-keyed sub-region remappers whose combined
effect is that every demand-written page migrates to a fresh uniformly
random frame within a bounded number of its own writes, at a cost of two
page writes per remap step.

Two models are provided:

* :class:`SecurityRefresh` — the **behavioral model** used for the
  paper-figure experiments: each demand write triggers, with probability
  ``1/refresh_interval``, a swap of the just-written page's frame with a
  uniformly random frame (2 page writes).  This matches the two-level
  design's three observable properties exactly — remap rate per hammered
  address, write overhead (2/interval ≈ 1.6 %), and a uniform stationary
  wear distribution — and unlike a single XOR level it keeps those
  properties at any simulated array scale (see DESIGN.md §2).  The
  trigger is memoryless rather than a modulo counter so that a
  write-stream period can never phase-lock with the refresh period (the
  hardware's sweep pointer is likewise uncorrelated with the stream).
* :class:`SingleLevelSecurityRefresh` — the faithful sweep-split XOR
  mechanics of one SR level: a refresh pointer sweeps the region,
  incrementally migrating data from the current-key placement to a
  next-key placement.  Its full key rotation takes ``n * interval``
  writes, which is *slower than page endurance* for concentrated write
  streams — the reason the original authors layered two levels.  Kept as
  an ablation (``sr_single`` in the registry) demonstrating exactly that
  weakness.

SR is PV-unaware either way: it uniformly randomizes wear, so (as the
paper reports) lifetime is pinned at the weakest page's endurance —
about 44% of ideal — under *every* workload, attack or benign.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..config import SecurityRefreshConfig
from ..errors import ConfigError
from ..pcm.array import PCMArray
from ..rng.lfsr import GaloisLFSR
from ..rng.streams import derive_seed
from ..rng.xorshift import XorShift32
from ..tables.remap import RemappingTable
from .base import WearLeveler


class SecurityRefresh(WearLeveler):
    """Behavioral SR: demand-driven uniformly randomized remapping."""

    name = "sr"

    def __init__(
        self,
        array: PCMArray,
        config: SecurityRefreshConfig = SecurityRefreshConfig(),
        seed: int = 0,
    ):
        super().__init__(array)
        self.config = config
        self.remap = RemappingTable(array.n_pages)
        self._victim_rng = XorShift32(
            (derive_seed(seed, "sr-victim") % 0xFFFF_FFFE) + 1
        )
        self._trigger_rng = XorShift32(
            (derive_seed(seed, "sr-trigger") % 0xFFFF_FFFE) + 1
        )
        self.refresh_steps = 0

    def translate(self, logical: int) -> int:
        self.check_logical(logical)
        return self.remap.lookup(logical)

    def write(self, logical: int) -> int:
        physical = self.remap.lookup(logical)
        self.array.write(physical)
        self._count_demand()
        writes = 1
        if self._trigger_rng.next_below(self.config.refresh_interval) == 0:
            writes += self._refresh_step(logical)
        return writes

    def write_batch(
        self, addresses: Sequence[int], stop_at: Optional[int] = None
    ) -> np.ndarray:
        """Vectorized batch path: segments that end at refresh triggers.

        The trigger stream and the victim stream come from *separate*
        xorshift instances, so the batch can pre-draw one trigger word
        per request (exactly the draws the serial loop would make) and
        serve each trigger-free run of demand writes as one segment of
        :meth:`_serve_segments`, stepping the scalar
        :meth:`_refresh_step` only at trigger positions.  With the
        default refresh interval that is one scalar step per ~interval
        writes; everything else is vectorized.

        Each segment's commit sets the trigger RNG to the word of the
        last request it served, so a batch that a failure or ``stop_at``
        ends early leaves the RNG where the serial loop would: the words
        drawn past that request belong to requests not yet served.
        """
        return self._serve_segments(addresses, stop_at)

    def _plan_segments(self, seq: np.ndarray):
        words = self._trigger_rng.next_words(seq.size)
        triggers = np.flatnonzero(words % self.config.refresh_interval == 0)
        return words, iter(triggers.tolist())

    def _next_segment(self, seq: np.ndarray, start: int, plan):
        trigger = next(plan[1], None)
        stop = int(seq.size) if trigger is None else trigger + 1
        return stop, self.remap.mapping_array()[seq[start:stop]], trigger is not None

    def _commit_segment(self, seq, start, end, frames, plan) -> None:
        self._trigger_rng.state = int(plan[0][end - 1])

    def _segment_event(self, logical: int) -> int:
        return self._refresh_step(logical)

    def _snapshot_state(self):
        return {
            "refresh_steps": self.refresh_steps,
            "remap": self.remap.snapshot(),
            "trigger_rng": self._trigger_rng.snapshot(),
            "victim_rng": self._victim_rng.snapshot(),
        }

    def _restore_state(self, state):
        self.refresh_steps = int(state["refresh_steps"])
        self.remap.restore(state["remap"])
        self._trigger_rng.restore(state["trigger_rng"])
        self._victim_rng.restore(state["victim_rng"])

    def _refresh_step(self, logical: int) -> int:
        """Swap the written page's frame with a uniformly random frame."""
        n = self.remap.n_pages
        victim = self._victim_rng.next_below(n)
        other = self.remap.inverse(victim)
        if other == logical:
            return 0
        frame_a = self.remap.lookup(logical)
        self.array.write(frame_a)
        self.array.write(victim)
        self.remap.swap_logical(logical, other)
        self.refresh_steps += 1
        self._count_swap(2)
        return 2


class _XorLevel:
    """Sweep-split XOR remapping state for one SR region."""

    __slots__ = ("base", "size", "key_current", "key_next", "pointer", "write_count")

    def __init__(self, base: int, size: int, key_current: int, key_next: int):
        self.base = base
        self.size = size
        self.key_current = key_current
        self.key_next = key_next
        self.pointer = 0
        self.write_count = 0


class SingleLevelSecurityRefresh(WearLeveler):
    """Faithful single-level SR sweep mechanics (ablation baseline).

    A refresh pointer sweeps each region; an offset and its partner
    ``offset ^ key_current ^ key_next`` exchange frames in one remap step
    (2 page writes), so both flip to the next-key placement once the
    pointer passes the smaller of the two.  A full sweep rotates the
    region onto a fresh random key.
    """

    name = "sr_single"

    def __init__(
        self,
        array: PCMArray,
        config: SecurityRefreshConfig = SecurityRefreshConfig(),
        seed: int = 0,
    ):
        super().__init__(array)
        n = array.n_pages
        if n < 2 or (n & (n - 1)) != 0:
            raise ConfigError(
                f"single-level SR needs a power-of-two page count, got {n}"
            )
        region_pages = config.region_pages or n
        if region_pages > n or n % region_pages != 0:
            raise ConfigError(
                f"region size {region_pages} does not divide array size {n}"
            )
        if region_pages < 2:
            raise ConfigError("SR regions need at least two pages")
        self.config = config
        self.region_pages = region_pages
        self._offset_mask = region_pages - 1
        self._region_shift = region_pages.bit_length() - 1
        self._lfsr = GaloisLFSR(
            width=max(4, min(32, self._region_shift + 4)),
            seed=(derive_seed(seed, "sr-lfsr") % ((1 << 16) - 1)) + 1,
        )
        self._regions: List[_XorLevel] = []
        for index in range(n // region_pages):
            key_current = self._fresh_key()
            key_next = self._fresh_key(exclude=key_current)
            self._regions.append(
                _XorLevel(index * region_pages, region_pages, key_current, key_next)
            )

    def _fresh_key(self, exclude: int = -1) -> int:
        """Draw a new random region key different from ``exclude``."""
        while True:
            key = self._lfsr.next_word(self._region_shift)
            if key != exclude:
                return key

    def _map_offset(self, region: _XorLevel, offset: int) -> int:
        """Within-region placement under the sweep-split key pair."""
        partner = offset ^ region.key_current ^ region.key_next
        if min(offset, partner) < region.pointer:
            return offset ^ region.key_next
        return offset ^ region.key_current

    def translate(self, logical: int) -> int:
        self.check_logical(logical)
        region = self._regions[logical >> self._region_shift]
        offset = logical & self._offset_mask
        return region.base + self._map_offset(region, offset)

    def write(self, logical: int) -> int:
        physical = self.translate(logical)
        self.array.write(physical)
        self._count_demand()
        writes = 1
        region = self._regions[logical >> self._region_shift]
        region.write_count += 1
        if region.write_count >= self.config.refresh_interval:
            region.write_count = 0
            writes += self._refresh_step(region)
        return writes

    def _snapshot_state(self):
        # Region geometry (base/size) is derivable from the config; the
        # keys, sweep pointers and write counters are the moving state.
        # The LFSR register must be restored directly — construction
        # consumed draws for the initial keys, and re-drawing would
        # desynchronize every later key rotation.
        return {
            "lfsr": self._lfsr.snapshot(),
            "regions": [
                {
                    "key_current": region.key_current,
                    "key_next": region.key_next,
                    "pointer": region.pointer,
                    "write_count": region.write_count,
                }
                for region in self._regions
            ],
        }

    def _restore_state(self, state):
        self._lfsr.restore(state["lfsr"])
        records = state["regions"]
        if len(records) != len(self._regions):
            raise ConfigError(
                f"snapshot holds {len(records)} SR regions, scheme has "
                f"{len(self._regions)}"
            )
        for region, record in zip(self._regions, records):
            region.key_current = int(record["key_current"])
            region.key_next = int(record["key_next"])
            region.pointer = int(record["pointer"])
            region.write_count = int(record["write_count"])

    def _refresh_step(self, region: _XorLevel) -> int:
        """Advance the region's sweep by one offset."""
        offset = region.pointer
        partner = offset ^ region.key_current ^ region.key_next
        cost = 0
        if offset < partner:
            frame_a = region.base + (offset ^ region.key_current)
            frame_b = region.base + (offset ^ region.key_next)
            self.array.write(frame_a)
            self.array.write(frame_b)
            self._count_swap(2)
            cost = 2
        region.pointer += 1
        if region.pointer >= region.size:
            region.pointer = 0
            region.key_current = region.key_next
            region.key_next = self._fresh_key(exclude=region.key_current)
        return cost
