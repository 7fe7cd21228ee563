"""One supervisor for the worker pool of the executor and the server.

:class:`PoolSupervisor` owns the :class:`ProcessPoolExecutor` that
:func:`~repro.exec.executor.execute_cells` (``--jobs N``) and
:class:`~repro.serve.server.CampaignServer` run cells on, its current
width, and the one worker-loss policy both follow:

* A broken pool is rebuilt at full width up to ``max_rebuilds`` times.
  Past that each rebuild halves the width, with a floor of 1, and marks
  the supervisor ``degraded``.
* A break is charged as a failed attempt against a cell's retry budget
  only when the pool that broke had one worker: only then is the dying
  cell known.  A wider pool's in-flight cells are resubmitted free.
  Either way the policy terminates: every break spends a rebuild, so a
  pool that keeps breaking reaches width 1, where every break is
  charged.

Many waiters can see the same break.  :meth:`note_broken` is
identity-checked under a lock, so the first caller rebuilds and later
callers adopt the new pool.  Workers start lazily, so a rebuild only
swaps executors.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Optional, Tuple


class PoolSupervisor:
    """A process pool that rebuilds itself after worker loss.

    ``mp_context`` is the caller's start method (None = the platform
    default); the server needs ``spawn``, the executor keeps the default.
    """

    def __init__(
        self, workers: int, max_rebuilds: int, mp_context: Optional[Any] = None
    ) -> None:
        #: Width of the current pool (halved past ``max_rebuilds``).
        self.workers = workers
        self.max_rebuilds = max_rebuilds
        #: Rebuilds so far, at any width.
        self.rebuilds = 0
        #: True once a rebuild has halved the pool.
        self.degraded = False
        self._context = mp_context
        self._lock = threading.Lock()
        self.pool = self._new_pool()

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.workers, mp_context=self._context)

    def submit(
        self, fn: Callable[..., Any], *args: Any
    ) -> Tuple[ProcessPoolExecutor, Future]:
        """Submit to the current pool; returns that pool with the future.

        The pool is what :meth:`note_broken` takes if the future fails
        with ``BrokenProcessPool``.  A pool already broken at submission
        is rebuilt and the call goes to its replacement: the cell never
        ran, so nothing is charged.  Raises ``RuntimeError`` after
        :meth:`shutdown`.
        """
        while True:
            pool = self.pool
            try:
                return pool, pool.submit(fn, *args)
            except BrokenProcessPool:
                self.note_broken(pool)
            except RuntimeError:
                if pool is self.pool:
                    raise  # shut down, not replaced

    def note_broken(self, pool: ProcessPoolExecutor) -> bool:
        """Replace ``pool`` after it broke, unless someone already did.

        Returns whether the break is charged against the dying cell's
        retry budget: True only when ``pool`` had one worker.
        """
        with self._lock:
            if pool is self.pool:
                pool.shutdown(wait=False, cancel_futures=True)
                self.rebuilds += 1
                if self.rebuilds > self.max_rebuilds:
                    self.workers = max(1, self.workers // 2)
                    self.degraded = True
                self.pool = self._new_pool()
        return pool._max_workers == 1  # type: ignore[attr-defined]

    def looks_alive(self, pool: ProcessPoolExecutor) -> bool:
        """Best-effort liveness check on ``pool``'s worker processes.

        Inspects the executor's (private) process table; an empty or
        missing table means workers haven't spawned yet — not evidence
        of death — so the benefit of the doubt goes to the pool.  Only
        a table whose every process is dead reads as broken.
        """
        processes = getattr(pool, "_processes", None)
        if not processes:
            return True
        return any(proc.is_alive() for proc in processes.values())

    def shutdown(self, wait: bool = False) -> None:
        """Shut the current pool down, cancelling cells not yet started."""
        self.pool.shutdown(wait=wait, cancel_futures=True)
