"""Portable per-cell wall-clock deadlines.

The PR 3 timeout enforced a cell's wall-clock budget with ``SIGALRM`` —
perfect inside a pool worker (the cell runs on the worker's main
thread), silently *unenforced* anywhere else: signal handlers are
main-thread-only, so a cell driven from a non-main thread degraded to
warn-and-run.  That "anywhere else" is exactly how a long-lived service
drives cells, so the hole became a liability the moment the executor
grew a server on top.

:class:`CellDeadline` replaces the alarm with a mechanism that works on
any thread and any platform with CPython:

* a daemon **watchdog thread** waits out the budget on a cancellation
  event (``Event.wait`` times out on the monotonic clock);
* on expiry it injects :class:`DeadlineReached` into the *executing*
  thread via ``PyThreadState_SetAsyncExc`` — the same CPython C-API
  hook ``KeyboardInterrupt`` delivery uses, raised at the next bytecode
  boundary;
* disarming neutralizes a pending injection, and the executor maps any
  escaped :class:`DeadlineReached` to
  :class:`~repro.errors.CellTimeoutError`, so the observable semantics
  of the SIGALRM era are preserved exactly.

The injection lands at a bytecode boundary, so a single very long C
call (a giant ``numpy`` batch, an uninterruptible ``time.sleep``)
defers delivery until it returns.  Engine batches are bounded, and the
fault harness's ``hang`` mode sleeps in slices for exactly this reason.

On interpreters without the C-API hook (the ``ctypes.pythonapi``
probe fails) arming degrades to the historical warn-and-run behaviour
rather than failing the cell.
"""

from __future__ import annotations

import ctypes
import threading
import warnings
from types import TracebackType
from typing import Callable, Optional, Type

__all__ = ["CellDeadline", "DeadlineReached"]


class DeadlineReached(BaseException):
    """Injected into the executing thread when a cell deadline expires.

    Derives from :class:`BaseException` (like ``KeyboardInterrupt``) so
    a stray ``except Exception`` inside simulation code cannot swallow
    the expiry; the executor converts it to
    :class:`~repro.errors.CellTimeoutError` at the cell boundary.
    """


def _async_exc_injector() -> Optional[Callable[[int, Optional[type]], int]]:
    """The CPython async-exception hook, or None off-CPython."""
    try:
        pythonapi = ctypes.pythonapi
        hook = pythonapi.PyThreadState_SetAsyncExc
    except AttributeError:  # pragma: no cover - non-CPython fallback
        return None

    def inject(thread_id: int, exc_type: Optional[type]) -> int:
        exc = ctypes.py_object(exc_type) if exc_type is not None else None
        return int(hook(ctypes.c_ulong(thread_id), exc))

    return inject


_INJECT = _async_exc_injector()


class CellDeadline:
    """Arm a wall-clock budget for the current thread; context manager.

    ::

        with CellDeadline(timeout):
            try:
                result = run_cell(cell)
            except DeadlineReached:
                raise CellTimeoutError(...) from None

    Entering arms a watchdog against the *entering* thread; exiting
    disarms it and neutralizes any injection that has not materialized
    yet.  The enter/exit window is the only region where
    :class:`DeadlineReached` can surface, but callers should still keep
    an outer ``except DeadlineReached`` for the closing race (a cell
    finishing in the instant its budget expires): expiry always means
    the budget was genuinely exceeded.
    """

    def __init__(self, seconds: float) -> None:
        if seconds <= 0:
            raise ValueError(f"deadline must be positive, got {seconds}")
        self.seconds = seconds
        self._cancel = threading.Event()
        self._watchdog: Optional[threading.Thread] = None
        self._target_thread: Optional[int] = None
        self._fired = False

    def _watch(self) -> None:
        if self._cancel.wait(self.seconds):
            return  # disarmed in budget
        self._fired = True
        if _INJECT is not None and self._target_thread is not None:
            pending = _INJECT(self._target_thread, DeadlineReached)
            if pending > 1:  # pragma: no cover - defensive
                _INJECT(self._target_thread, None)

    def arm(self) -> bool:
        """Start enforcement against the calling thread.

        Returns False (after a one-line warning) when the interpreter
        offers no injection hook — the historical degrade-to-unenforced
        behaviour, now reserved for genuinely unenforceable platforms
        instead of every non-main thread.
        """
        if _INJECT is None:  # pragma: no cover - non-CPython fallback
            warnings.warn(
                f"cell deadline ({self.seconds:.6g}s) not enforceable here "
                "(no PyThreadState_SetAsyncExc hook); running without a "
                "timeout",
                RuntimeWarning,
                stacklevel=2,
            )
            return False
        self._target_thread = threading.get_ident()
        self._watchdog = threading.Thread(
            target=self._watch,
            name="cell-deadline-watchdog",
            daemon=True,
        )
        self._watchdog.start()
        return True

    def disarm(self) -> None:
        """Stop enforcement and neutralize any undelivered injection."""
        self._cancel.set()
        if self._watchdog is not None:
            self._watchdog.join()
            self._watchdog = None
        if self._fired and _INJECT is not None and self._target_thread is not None:
            # The injection may still be pending (not yet raised); clear
            # it so it cannot surface in unrelated later code.  If it
            # already materialized we are inside the caller's except
            # handler and this is a no-op.
            _INJECT(self._target_thread, None)

    def __enter__(self) -> "CellDeadline":
        self.arm()
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.disarm()
