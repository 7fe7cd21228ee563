"""Fault-tolerant process-pool execution of experiment cells.

:func:`execute_cells` takes a list of :class:`ExperimentCell` specs and
returns their results in input order, fanning the uncached cells out
across a :class:`concurrent.futures.ProcessPoolExecutor` when
``jobs > 1``.  Guarantees:

* **Bit-identical to serial.**  A cell's result is a pure function of
  its spec (all RNG streams derive from the cell seed), and workers
  receive only the spec, so ``jobs=N`` reproduces ``jobs=1`` exactly —
  enforced by ``tests/test_exec.py``.  The same purity makes *retries,
  pool rebuilds and resume* identity-preserving: re-running
  a cell can only reproduce the result the clean run would have
  produced (``tests/test_resilience.py`` enforces that too).
* **Failures keep their identity.**  Workers wrap any
  :class:`~repro.errors.ReproError` into a single-string
  :class:`~repro.errors.CellExecutionError` naming the failing cell
  (``cell twl_swp×scan seed=3: …``) — both because a bare pool
  traceback is useless at 40 cells, and because multi-argument
  exceptions like ``InvariantViolation`` do not survive unpickling
  across the pool boundary.
* **Partial progress is never lost.**  Results are written to the
  cache and the resume directory *as they complete*, before any
  sibling's failure can abort the campaign — including siblings that
  finished in the same completion batch as, or were still running at,
  the moment of a fail-fast abort.
* **Observable progress.**  Each completed cell emits one line —
  ``[12/40] twl_swp×scan seed=3 … 1.8s (cached)`` — through the
  ``progress`` callback (default: stderr), with per-cell wall-clock
  timing collected in the returned :class:`CellOutcome` records.  The
  time is taken inside the worker around the cell's own run, so queue
  wait in a busy pool is never counted.

Resilience is governed by a :class:`~repro.exec.policy.FailurePolicy`
(retries with deterministic backoff, per-cell wall-clock timeout,
``fail-fast`` vs ``keep-going``) and an optional resume point: a second
:class:`~repro.exec.cache.CellCache` that the campaign owns, consulted
before the shared cache and written whether or not caching is on
(crash-safe resume).
With ``jobs > 1`` the cells run on a
:class:`~repro.exec.pool.PoolSupervisor`.  A worker killed outright
(OOM, SIGKILL) breaks the pool; the supervisor rebuilds it, at half the
width once it has broken more than :data:`MAX_POOL_REBUILDS` times, and the
cells the break interrupted are resubmitted.  The resubmission is free
unless the pool that broke had one worker: that worker runs its cells
in submission order, so the oldest interrupted cell is the one it died
on, and the break is one of that cell's failed attempts under
``max_retries``.  The per-cell timeout is enforced
*inside* the worker via a :class:`~repro.exec.deadline.CellDeadline`
watchdog, so no pool teardown is needed to reclaim a hung cell.

Both stores are consulted in the parent before any work is scheduled
and written back from the parent as results arrive, so workers never
touch cache files.
"""

from __future__ import annotations

import contextlib
import sys
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..engine import discard_snapshot
from ..engine import interrupt as engine_interrupt
from ..errors import (
    CampaignError,
    CellExecutionError,
    CellTimeoutError,
    error_context,
)
from .cache import CellCache
from .cells import CellResult, ExperimentCell, cell_snapshot_path, run_cell
from .deadline import CellDeadline, DeadlineReached
from .faults import maybe_inject
from .hashing import cell_fingerprint
from .policy import DEFAULT_FAILURE_POLICY, CellFailure, FailurePolicy, retry_delay
from .pool import PoolSupervisor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..experiments.setups import ExperimentSetup

#: Pool rebuilds at full width after worker crashes; each later rebuild
#: halves the pool (floor 1).  A crash counts as a failed attempt only
#: when the pool had one worker (:mod:`repro.exec.pool`).
MAX_POOL_REBUILDS = 2

#: ``progress=False`` silences output; ``None`` selects the default
#: stderr printer; a callable receives each formatted line.
ProgressHook = Union[None, bool, Callable[[str], None]]


@dataclass(frozen=True)
class CellOutcome:
    """One executed (or cache-/resume-served) cell with its timing."""

    cell: ExperimentCell
    result: CellResult
    seconds: float
    cached: bool
    #: True when the result came from the resume directory (a resumed
    #: campaign) rather than fresh execution; such outcomes also report
    #: ``cached=True``.
    resumed: bool = False


def _default_progress(line: str) -> None:
    print(line, file=sys.stderr, flush=True)


def _resolve_progress(progress: ProgressHook) -> Optional[Callable[[str], None]]:
    if progress is None or progress is True:
        return _default_progress
    if progress is False:
        return None
    return progress


def _progress_line(
    index: int,
    total: int,
    cell: ExperimentCell,
    seconds: float,
    cached: bool,
    resumed: bool = False,
) -> str:
    suffix = ""
    if resumed:
        suffix = " (resumed)"
    elif cached:
        suffix = " (cached)"
    return f"[{index}/{total}] {cell.describe()} … {seconds:.1f}s{suffix}"


def _execute_one(
    cell: ExperimentCell, timeout: Optional[float] = None
) -> Tuple[CellResult, float]:
    """Worker entry point (module-level so it pickles under spawn).

    Returns the cell's result and the wall-clock seconds its run took
    in this process (queue wait before a pool worker picked it up is
    excluded).

    When ``timeout`` is set, a :class:`~repro.exec.deadline.CellDeadline`
    watchdog guards the cell: expiry raises
    :class:`~repro.errors.CellTimeoutError` naming the cell.  The budget
    is enforced worker-side so a hung cell never requires tearing down
    the pool, and — unlike the ``SIGALRM`` interval timer it replaces —
    it works on *any* thread, not only a pool worker's main thread.
    Only interpreters without the CPython async-exception hook degrade
    to unenforced (with a one-line warning from :meth:`CellDeadline.arm`).
    """
    guard: contextlib.AbstractContextManager[object] = (
        contextlib.nullcontext() if timeout is None else CellDeadline(timeout)
    )
    start = time.perf_counter()
    try:
        with guard:
            with error_context(f"cell {cell.describe()}", CellExecutionError):
                # Pool workers are reused across cells: a kill armed for
                # a previous cell (but never reached) must not leak.
                engine_interrupt.clear()
                maybe_inject(cell)
                result = run_cell(cell)
        return result, time.perf_counter() - start
    except DeadlineReached:
        # A timed-out cell abandons its run: any snapshot it emitted
        # (plus stray atomic-write temp files) is dead state that
        # would otherwise leak into the cache directory — and worse,
        # seed a *resume* of a run we just declared over-budget.
        snapshot = cell_snapshot_path(cell)
        if snapshot is not None:
            try:
                discard_snapshot(snapshot)
            except OSError:
                pass
        raise CellTimeoutError(
            f"cell {cell.describe()} timed out after {timeout:.6g}s wall-clock"
        ) from None


def execute_cells(
    cells: Sequence[ExperimentCell],
    jobs: int = 1,
    cache: Optional[CellCache] = None,
    progress: ProgressHook = None,
    policy: Optional[FailurePolicy] = None,
    resume: Optional[CellCache] = None,
) -> List[CellOutcome]:
    """Run every cell, in parallel when ``jobs > 1``, returning outcomes.

    Results come back in input order regardless of completion order.
    ``policy`` (default: no retries, no timeout, ``fail-fast``) governs
    failure handling; ``resume`` is the campaign's own result directory:
    it serves results stored by a previous, interrupted run (reported
    as ``resumed``), ahead of ``cache``, and every result is stored in
    it.

    Under ``fail-fast`` the first cell to exhaust its retry budget
    aborts the campaign with its :class:`~repro.errors.CellExecutionError`
    — but only after every already-finished sibling's result has been
    written to the cache and resume directory, so a repaired re-run resumes
    where the failure struck.  Under ``keep-going`` every runnable cell
    is finished and a single :class:`~repro.errors.CampaignError`
    summarizing the structured :class:`~repro.exec.policy.CellFailure`
    records is raised at the end.
    """
    policy = policy if policy is not None else DEFAULT_FAILURE_POLICY
    report = _resolve_progress(progress)
    total = len(cells)
    fingerprints = [cell_fingerprint(cell) for cell in cells]
    outcomes: List[Optional[CellOutcome]] = [None] * total
    failures: List[CellFailure] = []
    attempts: Dict[int, int] = {}
    pending: List[int] = []
    done = 0

    def note(line: str) -> None:
        if report:
            report(line)

    def finish(index: int, result: CellResult, seconds: float, source: str = "run") -> None:
        nonlocal done
        done += 1
        cell = cells[index]
        resumed = source == "resume"
        cached = source != "run"
        outcomes[index] = CellOutcome(
            cell, result, seconds, cached=cached, resumed=resumed
        )
        # Write-back precedes the progress line so an interrupt raised
        # by the progress hook (or Ctrl-C between cells) always leaves
        # this cell durably recorded — the resumability contract.
        for store, served_from in ((cache, "cache"), (resume, "resume")):
            if store is not None and source != served_from:
                store.put(cell, fingerprints[index], result)
        note(_progress_line(done, total, cell, seconds, cached=cached, resumed=resumed))

    def fail(index: int, error: BaseException, attempt_count: int) -> None:
        nonlocal done
        done += 1
        cell = cells[index]
        failures.append(
            CellFailure(
                cell=cell.describe(),
                fingerprint=fingerprints[index],
                error=str(error),
                attempts=attempt_count,
            )
        )
        note(
            f"[{done}/{total}] {cell.describe()} FAILED "
            f"after {attempt_count} attempt(s): {error}"
        )

    def grant_retry(index: int, error: BaseException) -> bool:
        """Charge one failed attempt; True when a retry is granted."""
        count = attempts.get(index, 0) + 1
        attempts[index] = count
        if count > policy.max_retries:
            return False
        delay = retry_delay(fingerprints[index], count)
        note(
            f"[retry] {cells[index].describe()} attempt "
            f"{count + 1}/{policy.max_retries + 1} in {delay:.2f}s: {error}"
        )
        if delay > 0:
            time.sleep(delay)
        return True

    for index in range(total):
        for store, source in ((resume, "resume"), (cache, "cache")):
            hit = None if store is None else store.get(fingerprints[index])
            if hit is not None:
                finish(index, hit, 0.0, source=source)
                break
        else:
            pending.append(index)

    def run_serial(indices: Sequence[int]) -> None:
        for index in indices:
            while True:
                try:
                    result, seconds = _execute_one(cells[index], policy.timeout)
                except CellExecutionError as error:
                    if grant_retry(index, error):
                        continue
                    if policy.keep_going:
                        fail(index, error, attempts[index])
                        break
                    raise
                else:
                    finish(index, result, seconds)
                    break

    def run_pool(indices: Sequence[int]) -> None:
        supervisor = PoolSupervisor(min(jobs, len(indices)), MAX_POOL_REBUILDS)
        futures: Dict[Future, Tuple[int, ProcessPoolExecutor]] = {}

        def submit(index: int) -> None:
            pool, future = supervisor.submit(_execute_one, cells[index], policy.timeout)
            futures[future] = (index, pool)

        def drain_on_abort() -> None:
            """Before a fail-fast raise: cancel what we can, then bank
            the results of every cell that still manages to finish."""
            for future in futures:
                future.cancel()
            if not futures:
                return
            settled, _ = wait(set(futures))
            for future in settled:
                index = futures[future][0]
                if future.cancelled() or future.exception() is not None:
                    continue
                finish(index, *future.result())

        for index in indices:
            submit(index)
        try:
            while futures:
                settled, _ = wait(set(futures), return_when=FIRST_COMPLETED)
                successes: List[Tuple[int, Tuple[CellResult, float]]] = []
                errors: List[Tuple[int, BaseException]] = []
                broken: Optional[ProcessPoolExecutor] = None
                for future in settled:
                    index, pool = futures[future]
                    error = None if future.cancelled() else future.exception()
                    if isinstance(error, BrokenProcessPool):
                        broken = pool
                        continue
                    del futures[future]
                    if future.cancelled():
                        submit(index)  # its pool was replaced before it started
                    elif error is None:
                        successes.append((index, future.result()))
                    else:
                        errors.append((index, error))
                if broken is not None:
                    # A dead worker breaks every future of its pool at
                    # once.  One worker runs its cells in submission
                    # order, so there the oldest is the cell it died on.
                    lost = [future for future in futures if futures[future][1] is broken]
                    orphans = [futures.pop(future)[0] for future in lost]
                    if supervisor.note_broken(broken):
                        died = BrokenProcessPool("its worker died running it")
                        errors.append((orphans.pop(0), died))
                    note(
                        f"[warning] worker pool broke (crashed worker?); "
                        f"rebuilding at {supervisor.workers} worker(s)"
                        f"{', degraded' if supervisor.degraded else ''} "
                        f"(rebuild {supervisor.rebuilds}/{MAX_POOL_REBUILDS})"
                    )
                    for index in orphans:
                        submit(index)
                # Drain every finished sibling first: their results hit
                # the cache/resume directory even when another future in this
                # same batch is about to abort the campaign.
                for index, (result, seconds) in successes:
                    finish(index, result, seconds)
                for index, error in errors:
                    if not isinstance(error, CellExecutionError):
                        # A dead worker, or an exception that escaped the
                        # worker wrapper; keep the cell identity.
                        error = CellExecutionError(
                            f"cell {cells[index].describe()}: "
                            f"{type(error).__name__}: {error}"
                        )
                    if grant_retry(index, error):
                        submit(index)
                    elif policy.keep_going:
                        fail(index, error, attempts[index])
                    else:
                        drain_on_abort()
                        raise error
            supervisor.shutdown(wait=True)
        finally:
            supervisor.shutdown()

    if pending:
        if jobs <= 1 or len(pending) == 1:
            run_serial(pending)
        else:
            run_pool(pending)

    if cache is not None and report is not None and (total > 1 or cache.corrupt):
        report(cache.summary())
    if failures:
        raise CampaignError(failures)
    return [outcome for outcome in outcomes if outcome is not None]


def run_cells(
    cells: Sequence[ExperimentCell],
    jobs: int = 1,
    cache: Optional[CellCache] = None,
    progress: ProgressHook = False,
    policy: Optional[FailurePolicy] = None,
    resume: Optional[CellCache] = None,
) -> List[CellResult]:
    """Like :func:`execute_cells` but returning bare results."""
    return [
        outcome.result
        for outcome in execute_cells(
            cells,
            jobs=jobs,
            cache=cache,
            progress=progress,
            policy=policy,
            resume=resume,
        )
    ]


def run_setup_cells(
    cells: Sequence[ExperimentCell],
    setup: "ExperimentSetup",
    progress: ProgressHook = None,
) -> List[CellResult]:
    """Run cells under an :class:`~repro.experiments.setups.ExperimentSetup`.

    Reads the setup's ``jobs``, ``cache_dir``, ``batch_size``,
    ``snapshot_every``, ``failure`` and ``resume`` fields — the single
    integration point
    through which every figure/ablation module gets parallelism,
    caching, the batched write protocol and the failure policy.  The
    setup's ``batch_size`` is authoritative: it replaces every cell's,
    so ``--batch-size 1`` reaches the per-write oracle path.  A
    ``resume`` path opens (creating if needed) a result directory
    there, so an interrupted campaign restarted with the same setup
    skips every cell the directory already holds, with or without the
    shared cache.  Snapshots (``snapshot_every``) go to the cache
    directory, or to the resume directory when the cache is off.
    Progress defaults to
    the stderr printer only when a cell actually has to run or more
    than one is requested (a single cached lookup stays quiet so helper
    calls don't chatter).
    """
    cells = [replace(cell, batch_size=setup.batch_size) for cell in cells]
    if setup.snapshot_every > 0:
        # Snapshots live next to the result entries they protect: in the
        # cache, or in the resume directory when the cache is off (the
        # setup rejects a cadence with neither).  Cells that pin their
        # own cadence keep it.
        snapshot_dir = setup.cache_dir or setup.resume
        cells = [
            replace(cell, snapshot_every=setup.snapshot_every, snapshot_dir=snapshot_dir)
            if cell.snapshot_every == 0
            else cell
            for cell in cells
        ]
    if progress is None and len(cells) <= 1:
        progress = False
    return run_cells(
        cells,
        jobs=setup.jobs,
        cache=CellCache(setup.cache_dir) if setup.cache_dir else None,
        progress=progress,
        policy=setup.failure,
        resume=CellCache(setup.resume) if setup.resume else None,
    )
