"""Counting Bloom filter.

A standard counting Bloom filter with saturating small counters, matching
what BWL's hardware would provision.  ``estimate`` returns the count-min
style minimum over probe positions, which BWL compares against its dynamic
hot threshold.

The per-key :meth:`~CountingBloomFilter.insert` /
:meth:`~CountingBloomFilter.estimate` pair is the reference.  The bulk
pair :meth:`~CountingBloomFilter.running_estimates` /
:meth:`~CountingBloomFilter.insert_rows` serves a run of inserts at
once: until the filter is cleared its counters only grow, and they
saturate exactly, so every estimate in a run is a pure function of the
inserts before it.
"""

from __future__ import annotations

import operator

import numpy as np

from ..errors import ConfigError
from .hashes import HashFamily


class CountingBloomFilter:
    """Counting Bloom filter over non-negative integer keys."""

    def __init__(self, bits: int, hashes: int, counter_bits: int = 8, seed: int = 0):
        if counter_bits < 1 or counter_bits > 30:
            raise ConfigError(
                f"counter width must be in [1, 30] bits, got {counter_bits}"
            )
        self._family = HashFamily(hashes, bits, seed=seed)
        self.bits = bits
        self.hashes = hashes
        self.counter_bits = counter_bits
        self._max = (1 << counter_bits) - 1
        self._counters = [0] * bits
        self.inserted = 0

    def insert(self, key: int) -> None:
        """Count one occurrence of ``key`` (counters saturate)."""
        for index in self._family.indices(key):
            if self._counters[index] < self._max:
                self._counters[index] += 1
        self.inserted += 1

    def estimate(self, key: int) -> int:
        """Upper-bound estimate of ``key``'s count (min over probes)."""
        # Explicit loop instead of min(generator): this sits in every
        # BWL demand write and the generator costs ~2x in CPython.
        counters = self._counters
        best = -1
        for index in self._family.indices(key):
            value = counters[index]
            if best < 0 or value < best:
                best = value
        return best

    def probe_table(self, n_keys: int) -> np.ndarray:
        """Probe positions of keys ``0..n_keys-1``, one row per key."""
        return self._family.table(n_keys)

    def running_estimates(self, probes: np.ndarray) -> np.ndarray:
        """Estimates a run of inserts would observe, without inserting.

        Row ``i`` of ``probes`` holds one key's probe positions (a row
        of :meth:`probe_table`).  Entry ``i`` of the result equals
        :meth:`estimate` of that key right after :meth:`insert` of rows
        ``0..i`` in order.  A counter probed ``h`` times by those rows
        (a row's duplicate probes each count) then reads
        ``min(c0 + h, max)``.
        """
        rows, k = probes.shape
        if rows == 0:
            return np.zeros(0, dtype=np.int64)
        flat = probes.ravel()
        size = flat.size
        # Group the probes by counter, keeping insert order inside each
        # group (a stable sort: a radix sort for the narrow probe dtype).
        order = np.argsort(flat, kind="stable")
        counter = flat[order]
        row = order // k
        position = np.arange(size)
        new_counter = np.empty(size, dtype=bool)
        new_counter[0] = True
        np.not_equal(counter[1:], counter[:-1], out=new_counter[1:])
        new_run = new_counter.copy()
        new_run[1:] |= row[1:] != row[:-1]
        group_start = np.maximum.accumulate(np.where(new_counter, position, 0))
        # One run per (counter, row): its end counts the row's own
        # duplicate probes as well as every earlier row's.
        run_start = np.flatnonzero(new_run)
        run_end = np.append(run_start[1:], size)
        hits = np.empty(size, dtype=np.int64)
        hits[order] = np.repeat(run_end, run_end - run_start) - group_start
        values = hits + self._counter_array()[flat]
        return np.minimum(values.reshape(rows, k).min(axis=1), self._max)

    def insert_rows(self, probes: np.ndarray) -> None:
        """:meth:`insert` every row of ``probes`` (saturating bulk commit)."""
        hits = np.bincount(probes.ravel(), minlength=self.bits)
        counters = np.minimum(hits + self._counter_array(), self._max)
        self._counters = counters.tolist()
        self.inserted += int(probes.shape[0])

    def _counter_array(self) -> np.ndarray:
        if self._max <= 0xFF:
            # Counters stay in [0, max] (restore checks it), so the
            # list packs into bytes, the fastest way into numpy.
            return np.frombuffer(bytes(self._counters), dtype=np.uint8)
        return np.fromiter(self._counters, dtype=np.int64, count=self.bits)

    def snapshot(self) -> dict:
        """Counters plus the insert total (the hash family is derivable)."""
        return {"counters": list(self._counters), "inserted": self.inserted}

    def restore(self, state: dict) -> None:
        """Restore a state captured by :meth:`snapshot`.

        Counters must be integers in ``[0, 2**counter_bits - 1]``: an
        above-max counter would make :meth:`insert` (which leaves it
        as it is) and :meth:`insert_rows` (which saturates it) disagree.
        """
        try:
            counters = [operator.index(value) for value in state["counters"]]
        except TypeError as exc:
            raise ConfigError(f"snapshot counters must be integers: {exc}") from None
        if len(counters) != self.bits:
            raise ConfigError(
                f"snapshot holds {len(counters)} counters, filter has {self.bits}"
            )
        for value in counters:
            if not 0 <= value <= self._max:
                raise ConfigError(
                    f"snapshot counter {value} outside [0, {self._max}]"
                )
        self._counters = counters
        self.inserted = int(state["inserted"])

    def clear(self) -> None:
        """Reset all counters (done at each phase boundary in BWL)."""
        self._counters = [0] * self.bits
        self.inserted = 0
