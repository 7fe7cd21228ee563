"""Workload drivers.

A driver owns a position in an infinite write stream (a looping trace
or chunked stream, or an attack) and is a pure source of logical
addresses: :meth:`WorkloadDriver.next_batch` yields the next ``n`` of
them as an array without serving them, and
:meth:`WorkloadDriver.observe_batch` receives the per-request physical
write counts once the engine has served them.  Serving is the engine's
job alone (:mod:`repro.engine`), at every batch size.

The one exception is the paper's threat model itself: an adaptive
attack picks each address from the response time of the previous write
(Section 3.1), so it has no batch to hand over.
:class:`AttackDriver` therefore also implements :meth:`AttackDriver.drive`,
the only per-write feedback loop in the package, which the engine calls
only for :attr:`WorkloadDriver.adaptive` drivers.

:class:`StreamDriver` pulls ``(ops, pages)`` chunks from a
:class:`~repro.traces.stream.TraceStream` and buffers only the current
chunk's writes, so multi-billion-request campaigns run at constant
memory.  A small in-RAM :class:`~repro.traces.trace.Trace` is looped the
same way, through ``StreamDriver(trace.stream(), n_pages)``.
"""

from __future__ import annotations

import abc

import numpy as np

from ..attacks.base import AttackWorkload
from ..config import TimingConfig
from ..errors import SimulationError
from ..traces.request import OP_WRITE
from ..traces.stream import TraceStream
from ..wearlevel.base import WearLeveler

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
        chunk boundary); an empty array means the stream is exhausted.
        Never called on an :attr:`adaptive` driver.  When a batch is
        cut short by a failure, the unserved tail is *not* rewound —
        the engine stops at first failure, so only post-failure driver
        state (trace position, loop counter) can drift from a serial
        run; everything that reaches a :class:`LifetimeResult` stays
        bit-identical.
        """

    def observe_batch(self, physical_write_counts: np.ndarray) -> None:
        """Feed back the per-request physical write counts of a batch."""

    @property
    def adaptive(self) -> bool:
        """Whether each write's address depends on the previous write's
        response.  Such a driver has no batch to plan ahead: it serves
        its own writes through a ``drive(scheme, max_demand)`` feedback
        loop (:meth:`AttackDriver.drive`), which the engine calls at
        every ``batch_size``."""
        return False

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
    like any other.  An adaptive one is served through :meth:`drive`.
    The response-time model matches the threat model's observable: a
    request that triggered k physical page writes blocks for k write
    latencies before the attacker's next request is served.
    """

    def __init__(self, attack: AttackWorkload, timing: TimingConfig = TimingConfig()):
        self.attack = attack
        self.timing = timing

    @property
    def workload_name(self) -> str:
        return self.attack.name

    def drive(self, scheme: WearLeveler, max_demand: int) -> int:
        """Serve up to ``max_demand`` writes one at a time, feeding each
        response time back before the next address is chosen.

        Stops early when the array fails.  Returns the number of demand
        writes actually served.
        """
        if max_demand < 0:
            raise ValueError("max_demand must be non-negative")
        attack = self.attack
        next_write = attack.next_write
        observe = attack.observe_response
        write = scheme.write
        array = scheme.array
        write_cycles = float(self.timing.write_cycles)
        served = 0
        while served < max_demand and not array.failed:
            physical_writes = write(next_write())
            observe(write_cycles * physical_writes)
            served += 1
        return served

    @property
    def adaptive(self) -> bool:
        return self.attack.is_adaptive

    def next_batch(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError("batch size must be non-negative")
        if self.attack.is_adaptive:
            # Later addresses of a batch would be computed on stale
            # response-time feedback.
            raise SimulationError(
                f"attack {self.attack.name!r} steers on per-write feedback "
                "and cannot be batched; serve it through drive()"
            )
        return self.attack.next_writes(n)

    def snapshot(self) -> dict:
        return {"attack": self.attack.snapshot()}

    def restore(self, state: dict) -> None:
        self.attack.restore(state["attack"])  # type: ignore[arg-type]
