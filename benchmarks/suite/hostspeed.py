"""Host-speed calibration of the benchmark's CPU times.

The benchmark times CPU seconds, which leave out every moment a process
waits for a core.  They still grow when the core itself runs slower: on
a shared host, other tenants (an SMT sibling, the shared caches, memory
bandwidth) slow the same fixed work by up to 1.7x for stretches of
seconds to minutes.

A reference kernel -- fixed Python and numpy work that uses nothing of
the package under test -- measures how slow the host runs at a moment.
Each timed job runs between two references, and its CPU time is divided
by their slowdown against the reference's CPU time on a quiet host
(``NOMINAL_*``).  What the benchmark reports is therefore the job's CPU
time at nominal host speed.  A change to the package cannot move the
reference, so the parent and the change are scaled alike.

The kernel mixes the two kinds of work the workloads do: many small
numpy calls (the engine's batched steps) and attribute, dict and integer
work in the interpreter (the per-write path).  Over eight fresh
processes on a busy host, dividing by the geometric mean of the two
slowdowns cut the spread of their best rounds (12-36%) and median rounds
(5-25%) to 1-8% for the calibrated median.
"""

from __future__ import annotations

import math
import statistics
import threading
import time
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

#: CPU seconds of each kernel on a quiet host (2-vCPU KVM guest, Intel
#: Xeon family 6 model 207, Python 3.11, numpy 2.4).  They fix the unit
#: of every reported time; only a measurement's ratio to them varies.
NOMINAL_NUMPY_S = 0.00120
NOMINAL_PYTHON_S = 0.00140
#: Seconds between two samples of a :class:`Sampler`.
SAMPLE_INTERVAL_S = 0.1

_ARANGE = np.arange(4096, dtype=np.int64)


def _numpy_kernel() -> int:
    buffer = np.zeros(1024, dtype=np.int64)
    total = 0
    for step in range(50):
        window = ((_ARANGE + step) % 1024)[:128]
        buffer[window] += 1
        np.sort(window)
        total += int(window.min()) + int(buffer.max())
    return total


class _Cell:
    __slots__ = ("key", "count")

    def __init__(self, key: int) -> None:
        self.key = key
        self.count = 0


_CELLS = [_Cell(key) for key in range(64)]


def _python_kernel() -> int:
    table = {}
    total = 0
    for step in range(9000):
        cell = _CELLS[step & 63]
        cell.count += step
        total += cell.key * 3 % 7
        table[step & 1023] = total
    return total


def slowdown(repeats: int = 1) -> float:
    """How many times slower than nominal this thread runs right now
    (median over ``repeats`` runs of the reference kernel)."""
    factors = []
    for _ in range(repeats):
        start = time.thread_time()
        _numpy_kernel()
        middle = time.thread_time()
        _python_kernel()
        end = time.thread_time()
        factors.append(
            math.sqrt((middle - start) / NOMINAL_NUMPY_S * (end - middle) / NOMINAL_PYTHON_S)
        )
    return statistics.median(factors)


class Calibrated:
    """Times jobs run one after another on this thread, each between two
    reference runs."""

    def __init__(self) -> None:
        slowdown()  # the first run pays for cold caches
        self._before = slowdown(3)
        #: Slowdown of every job timed so far.
        self.slowdowns: List[float] = []

    def time(self, job: Callable[..., Any], *args: Any) -> Tuple[Any, float]:
        """Run ``job(*args)``; return (its result, its CPU seconds at
        nominal host speed)."""
        start = time.process_time()
        result = job(*args)
        seconds = time.process_time() - start
        after = slowdown()
        factor = (self._before + after) / 2
        self._before = after
        self.slowdowns.append(factor)
        return result, seconds / factor


class Sampler:
    """Samples :func:`slowdown` on a background thread while work runs
    in other processes (pool workers, a server)::

        with Sampler() as speed:
            ...                      # the work
        nominal_s = cpu_s / speed.factor()

    The sampling thread's own CPU seconds are in :attr:`cpu_s`, for
    callers that time this process as a whole.  A process pool may fork
    its workers while the thread runs; the thread holds no lock a forked
    child uses (it runs numpy and interpreter work and waits on its own
    event).
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.cpu_s = 0.0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _run(self) -> None:
        start = time.thread_time()
        while True:
            self.samples.append(slowdown())
            if self._stop.wait(SAMPLE_INTERVAL_S):
                break
        self.cpu_s = time.thread_time() - start

    def __enter__(self) -> "Sampler":
        self._thread = threading.Thread(target=self._run, name="hostspeed", daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        assert self._thread is not None
        self._thread.join()

    def factor(self) -> float:
        """Median slowdown over the sampled stretch."""
        return statistics.median(self.samples)
