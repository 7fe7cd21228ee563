"""Workload drivers.

A driver owns a position in an infinite write stream (a looping trace
or chunked stream, or an attack) and is a pure source of logical
addresses: :meth:`WorkloadDriver.next_batch` yields the next ``n`` of
them as an array without serving them, and
:meth:`WorkloadDriver.observe_batch` receives the per-request physical
write counts once the engine has served them.  Serving is the engine's
job alone (:mod:`repro.engine`), at every batch size.

That holds for the paper's adaptive attack too.  It steers on response
times (Section 3.1), but between two course changes its addresses are
fixed, so :class:`AttackDriver` hands over one such segment per batch
and names in :attr:`WorkloadDriver.stop_at` the physical-write count the
attack's detector would react to; the engine ends the batch after the
first request that costs that much, and the served prefix's response
times go back to the attack in order.

:class:`StreamDriver` pulls ``(ops, pages)`` chunks from a
:class:`~repro.traces.stream.TraceStream` and buffers only the current
chunk's writes, so multi-billion-request campaigns run at constant
memory.  A small in-RAM :class:`~repro.traces.trace.Trace` is looped the
same way, through ``StreamDriver(trace.stream(), n_pages)``.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from ..attacks.base import AttackWorkload
from ..config import TimingConfig
from ..errors import SimulationError
from ..traces.request import OP_WRITE
from ..traces.stream import TraceStream

#: Consecutive writeless chunks after which a stream is declared broken
#: (an endless generator that stops yielding writes would otherwise spin
#: the refill loop forever).
_MAX_WRITELESS_CHUNKS = 100_000


class WorkloadDriver(abc.ABC):
    """Stateful source of demand-write addresses."""

    @abc.abstractmethod
    def next_batch(self, n: int) -> np.ndarray:
        """The next (up to) ``n`` logical addresses, without serving them.

        Drivers may return fewer than ``n`` addresses (a stream at a
        chunk boundary, an attack segment); an empty array means the
        stream is exhausted.  When a batch is cut short by a failure,
        the unserved tail is *not* rewound — the engine stops at first
        failure, so only post-failure driver state (trace position, loop
        counter) can drift from a serial run; everything that reaches a
        :class:`LifetimeResult` stays bit-identical.  A driver that sets
        :attr:`stop_at` plans its batch without committing it, and
        :meth:`observe_batch` commits the served prefix.
        """

    @property
    def stop_at(self) -> Optional[int]:
        """Physical-write count at which the batch last returned by
        :meth:`next_batch` ends early: the first request costing this
        much is served and the rest of the batch is not (``None``: serve
        the whole batch)."""
        return None

    def observe_batch(self, physical_write_counts: np.ndarray) -> None:
        """Feed back the per-request physical write counts of the served
        prefix of the last batch (shorter than the batch when a failure
        or :attr:`stop_at` ended it)."""

    def snapshot(self) -> dict:
        """The driver's mutable position state as a plain state tree.

        Restoring it into a freshly constructed driver over the same
        workload reproduces the remaining write sequence bit-exactly
        (the sub-cell recovery contract, ``docs/robustness.md``).
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support mid-run snapshots"
        )

    def restore(self, state: dict) -> None:
        """Restore a position captured by :meth:`snapshot`."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support mid-run snapshots"
        )

    @property
    @abc.abstractmethod
    def workload_name(self) -> str:
        """Label for result records."""


class StreamDriver(WorkloadDriver):
    """Loops a :class:`TraceStream`'s write stream at constant memory.

    Pulls one chunk at a time, keeps only that chunk's write addresses
    buffered, and rewinds finite streams at exhaustion (the paper's
    loop-to-failure methodology).  Positions and loop counters are plain
    Python ints, so multi-billion-request campaigns overflow nothing.

    Identity: the chunk size only changes *delivery granularity*
    (``next_batch`` may return short batches at chunk boundaries, which
    the engine loop tolerates), never the write sequence, so a streamed
    run equals a run over the same requests at any chunk size.
    """

    def __init__(self, stream: TraceStream, n_pages: int):
        self._stream = stream
        self._n_pages = n_pages
        self._buffer = np.empty(0, dtype=np.int64)
        self._offset = 0
        self._name = stream.name
        self.loops_completed = 0
        #: Total requests (reads included) consumed from the stream.
        self.requests_consumed = 0
        self._writes_this_loop = False
        #: Chunks consumed since the last rewind — the position hint the
        #: stream's :meth:`~repro.traces.stream.TraceStream.snapshot_position`
        #: needs (the base stream protocol cannot observe chunk pulls).
        self._chunks_this_loop = 0

    @property
    def workload_name(self) -> str:
        return self._name

    def _refill(self) -> None:
        """Pull chunks until the write buffer is non-empty."""
        stream = self._stream
        writeless = 0
        while True:
            chunk = stream.next_chunk()
            if chunk is None:
                if not self._writes_this_loop:
                    raise SimulationError(
                        f"stream {self._name!r} contains no writes"
                    )
                stream.rewind()
                self.loops_completed += 1
                self._writes_this_loop = False
                self._chunks_this_loop = 0
                continue
            ops, pages = chunk
            self._chunks_this_loop += 1
            self.requests_consumed += int(ops.size)
            writes = pages[ops == OP_WRITE]
            if writes.size == 0:
                writeless += 1
                if writeless >= _MAX_WRITELESS_CHUNKS:
                    raise SimulationError(
                        f"stream {self._name!r} yielded {writeless} "
                        "consecutive chunks without a write"
                    )
                continue
            if int(writes.max()) >= self._n_pages or int(writes.min()) < 0:
                bad = writes[(writes < 0) | (writes >= self._n_pages)][0]
                raise SimulationError(
                    f"stream {self._name!r} touches page {int(bad)} outside "
                    f"array of {self._n_pages}"
                )
            self._buffer = writes
            self._offset = 0
            self._writes_this_loop = True
            return

    def next_batch(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError("batch size must be non-negative")
        if self._offset >= self._buffer.size:
            self._refill()
        # Serve from the buffered chunk only: a short batch at a chunk
        # boundary is cheaper than concatenating across chunks, and the
        # engine loop tolerates it (batch segmentation cannot change
        # results under the batch-identity contract).
        take = min(n, self._buffer.size - self._offset)
        out = self._buffer[self._offset : self._offset + take]
        self._offset += take
        return out

    def snapshot(self) -> dict:
        # The unserved tail of the current chunk travels in the snapshot
        # (re-decoding it would need a chunk re-pull the stream position
        # has already moved past); the stream itself records only its
        # chunk-granular position.
        return {
            "buffer": self._buffer[self._offset :].copy(),
            "chunks_this_loop": self._chunks_this_loop,
            "loops_completed": self.loops_completed,
            "requests_consumed": self.requests_consumed,
            "stream": self._stream.snapshot_position(self._chunks_this_loop),
            "writes_this_loop": self._writes_this_loop,
        }

    def restore(self, state: dict) -> None:
        self._buffer = np.asarray(state["buffer"], dtype=np.int64)
        self._offset = 0
        self._chunks_this_loop = int(state["chunks_this_loop"])
        self.loops_completed = int(state["loops_completed"])
        self.requests_consumed = int(state["requests_consumed"])
        self._writes_this_loop = bool(state["writes_this_loop"])
        self._stream.restore_position(state["stream"])  # type: ignore[arg-type]


class AttackDriver(WorkloadDriver):
    """Drives an attack, feeding back response latencies.

    A non-adaptive attack (scan, repeat, random) is an address source
    like any other.  An adaptive one is handed over a segment at a time
    (:meth:`~repro.attacks.base.AttackWorkload.segment`).  The
    response-time model matches the threat model's observable: a
    request that triggered k physical page writes blocks for k write
    latencies before the attacker's next request is served.
    """

    def __init__(self, attack: AttackWorkload, timing: TimingConfig = TimingConfig()):
        self.attack = attack
        self.timing = timing
        self._adaptive = attack.is_adaptive
        self._write_cycles = float(timing.write_cycles)
        self._stop_at: Optional[int] = None

    @property
    def workload_name(self) -> str:
        return self.attack.name

    def next_batch(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError("batch size must be non-negative")
        attack = self.attack
        if not self._adaptive:
            return attack.next_writes(n)
        horizon, stop_at = attack.segment(self._write_cycles)
        self._stop_at = stop_at  # twl: allow(TWL008) reason=stop count of the segment just handed over; every step's next_batch re-derives it from the detector, which the attack snapshot captures
        return attack.planned_writes(min(n, horizon))

    @property
    def stop_at(self) -> Optional[int]:
        # The stop count of the segment next_batch just handed over
        # (None for a non-adaptive attack).
        return self._stop_at

    def observe_batch(self, physical_write_counts: np.ndarray) -> None:
        if self._adaptive:
            self.attack.observe_responses(self._write_cycles * physical_write_counts)

    def snapshot(self) -> dict:
        return {"attack": self.attack.snapshot()}

    def restore(self, state: dict) -> None:
        self.attack.restore(state["attack"])  # type: ignore[arg-type]
