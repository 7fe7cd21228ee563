"""The asyncio campaign server: robust execution behind a socket.

:class:`CampaignServer` accepts NDJSON frames (see
:mod:`repro.serve.protocol`) from many concurrent clients and runs the
submitted experiment cells on a :class:`ProcessPoolExecutor`, composing
every robustness mechanism the executor stack already has:

* **Bounded admission.**  At most ``queue_limit`` cells are admitted at
  once; the next submission is rejected with a structured
  ``overloaded`` frame (the NDJSON analogue of HTTP 503) instead of
  buffering without bound.  Rejection is cheap and explicit — the
  client owns the retry decision.
* **Per-request deadlines.**  A submit frame's ``deadline`` rides into
  the worker as the :func:`~repro.exec.executor._execute_one` timeout
  (the portable :class:`~repro.exec.deadline.CellDeadline`), with a
  parent-side ``asyncio.wait_for`` backstop slightly beyond it for the
  case of a worker too wedged to enforce its own budget.  A
  worker-count gate keeps queued cells out of the pool, so the
  deadline starts when the cell starts — queue wait behind a saturated
  pool is never charged against it.
* **Worker-loss retry, pool rebuild, graceful degradation.**  The pool
  is a :class:`~repro.exec.pool.PoolSupervisor`, under the same
  worker-loss policy as ``twl-repro fig6 --jobs N``: a broken pool is
  rebuilt, past ``max_pool_rebuilds`` at half the width (repeatedly,
  floor 1), and every later response carries ``degraded: true``.  The
  cells a break interrupts are resubmitted; the break counts against a
  request's ``max_retries`` (with deterministic backoff,
  :func:`~repro.exec.policy.retry_delay`) only when the pool that broke had
  one worker, so a sibling's crash never fails an innocent request.  A
  periodic health probe detects silently dead pools between requests.
* **Duplicate coalescing.**  Submissions of an already-in-flight
  fingerprint await the same execution (``source: "coalesced"``) — the
  content-addressed-cache contract applied to in-flight work.
* **Per-session persistence.**  Completed cells are stored in a
  per-session result directory
  (:class:`~repro.serve.session.SessionStore`); a SIGKILLed server
  restarted on the same state directory serves them back
  bit-identically (``source: "journal"``, the wire name of a session
  hit).
* **Disconnect reclamation.**  A client that vanishes has its pending
  request tasks cancelled; executions nobody else is waiting on are
  cancelled too (reclaiming unstarted pool slots — a cell already on a
  worker runs to completion and lands in the cache, so the work is
  banked, not wasted).
* **Drain-then-exit.**  SIGTERM/SIGINT (CLI) or :meth:`begin_drain`
  flips the server into draining: new submissions get ``shutdown``
  rejections while admitted cells finish (bounded by ``drain_grace``),
  then sockets close and sessions release their owner locks.
"""

from __future__ import annotations

import asyncio
import contextlib
import multiprocessing
import os
import time
from concurrent.futures import Future as PoolFuture
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Optional, Set

from ..errors import CellExecutionError, CellTimeoutError, ConfigError, ReproError
from ..exec.cache import CellCache, encode_result
from ..exec.cells import CellResult, ExperimentCell
from ..exec.executor import MAX_POOL_REBUILDS, _execute_one
from ..exec.hashing import cell_fingerprint
from ..exec.policy import retry_delay
from ..exec.pool import PoolSupervisor
from .protocol import (
    ERROR_DEADLINE,
    ERROR_FAILED,
    ERROR_MALFORMED,
    ERROR_OVERLOADED,
    ERROR_OVERSIZED,
    ERROR_SHUTDOWN,
    MAX_FRAME_BYTES,
    OP_PING,
    OP_STATS,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_cell,
    decode_frame,
    encode_frame,
    error_response,
)
from .session import DEFAULT_SESSION, SessionStore, valid_session_name

__all__ = [
    "ServerConfig",
    "CampaignServer",
    "SubmitRequest",
    "SERVER_IDENTITY_FIELDS",
    "SERVER_EXECUTION_FIELDS",
    "REQUEST_IDENTITY_FIELDS",
    "REQUEST_EXECUTION_FIELDS",
    "encode_result_payload",
]

#: Parent-side slack beyond the worker-side deadline before the server
#: stops waiting for a (presumably wedged) worker and answers the
#: client itself.
DEADLINE_GRACE = 2.0


@dataclass(frozen=True)
class ServerConfig:
    """Everything one server instance is — address, state, limits."""

    #: Durable state root: per-session result directories under ``sessions/``,
    #: the shared content-addressed cache under ``cache/``.  Restarting
    #: a server on the same root *is* resuming every session in it.
    state_dir: str
    #: TCP bind address (ignored when ``unix_path`` is set).
    host: str = "127.0.0.1"
    #: TCP port; 0 binds an ephemeral port (see :attr:`CampaignServer.address`).
    port: int = 0
    #: UNIX-domain socket path; when set it wins over TCP.
    unix_path: Optional[str] = None
    #: Worker-pool size.
    workers: int = 2
    #: Maximum concurrently admitted submissions; admission past this
    #: is rejected with a structured ``overloaded`` frame.
    queue_limit: int = 16
    #: Deadline applied to submissions that name none (None = no limit).
    default_deadline: Optional[float] = None
    #: Retries per request after worker loss that names it: a break of
    #: a one-worker pool (deterministic backoff).
    max_retries: int = 2
    #: Pool rebuilds at full concurrency before degrading to half.
    max_pool_rebuilds: int = MAX_POOL_REBUILDS
    #: Seconds between pool health probes (0 disables the probe loop).
    health_interval: float = 5.0
    #: Close connections idle this long with nothing in flight.
    idle_timeout: float = 60.0
    #: Maximum wait for admitted cells during drain-then-exit.
    drain_grace: float = 30.0
    #: Whether to maintain the shared content-addressed result cache.
    cache: bool = True

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.queue_limit < 1:
            raise ConfigError(f"queue_limit must be >= 1, got {self.queue_limit}")
        if self.default_deadline is not None and self.default_deadline <= 0:
            raise ConfigError("default_deadline must be positive when set")
        if not self.state_dir:
            raise ConfigError("state_dir is required")


#: TWL003 classification (enforced by ``repro.devtools.lint``): the
#: identity of a server is where it listens and which durable state it
#: owns; everything else tunes how it executes.
SERVER_IDENTITY_FIELDS: FrozenSet[str] = frozenset(
    {"state_dir", "host", "port", "unix_path"}
)
SERVER_EXECUTION_FIELDS: FrozenSet[str] = frozenset(
    {
        "workers",
        "queue_limit",
        "default_deadline",
        "max_retries",
        "max_pool_rebuilds",
        "health_interval",
        "idle_timeout",
        "drain_grace",
        "cache",
    }
)


@dataclass(frozen=True)
class SubmitRequest:
    """One decoded submit frame."""

    #: The work itself — the only determinant of the result (cache
    #: fingerprint identity).
    cell: ExperimentCell
    #: Durable scope the result is stored under.
    session: str = DEFAULT_SESSION
    #: Client-side correlation id, echoed verbatim.
    request_id: str = ""
    #: Wall-clock budget (seconds); None inherits the server default.
    deadline: Optional[float] = None


#: TWL003: the cell and its session name *what* is computed and where
#: it persists; the id and deadline only shape this one exchange.
REQUEST_IDENTITY_FIELDS: FrozenSet[str] = frozenset({"cell", "session"})
REQUEST_EXECUTION_FIELDS: FrozenSet[str] = frozenset({"request_id", "deadline"})


def _probe() -> int:
    """Pool health probe body (module-level so it pickles)."""
    return os.getpid()


class _ExecutionCancelled(ReproError):
    """An admitted execution was cancelled out from under its waiters.

    Raised to a *live* waiter whose shielded execution future was
    cancelled externally (pool rebuild with ``cancel_futures=True``, or
    shutdown past ``drain_grace``) so the request still gets a
    structured error frame instead of a silent hang.
    """


def encode_result_payload(result: CellResult) -> Dict[str, Any]:
    """``{"kind": ..., "payload": ...}`` via the shared result codec."""
    kind, payload = encode_result(result)
    return {"kind": kind, "payload": payload}


@dataclass
class _Inflight:
    """One in-flight execution with its coalesced-waiter refcount."""

    future: "asyncio.Future[CellResult]"
    waiters: int = 0


class CampaignServer:
    """Asyncio front-end over the fault-tolerant cell executor."""

    def __init__(
        self,
        config: ServerConfig,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config
        self._clock = clock
        self._sessions = SessionStore(os.path.join(config.state_dir, "sessions"))
        self._cache: Optional[CellCache] = (
            CellCache(os.path.join(config.state_dir, "cache"))
            if config.cache
            else None
        )
        # Spawn, never fork: the server process runs an event loop plus
        # watchdog threads (fork is undefined behavior there), and forked
        # workers would inherit every client connection fd — so a
        # SIGKILLed server's orphaned workers would hold client sockets
        # open and the listener bound, turning instant EOFs into client
        # timeouts and blocking the restart.
        self._pool = PoolSupervisor(
            config.workers,
            config.max_pool_rebuilds,
            multiprocessing.get_context("spawn"),
        )
        #: Submission gate sized to the current pool's width, with the
        #: pool it was sized for (see :meth:`_gate`).
        self._gated: Optional[ProcessPoolExecutor] = None
        self._pool_gate: Optional[asyncio.Semaphore] = None
        self._active = 0
        self._inflight: Dict[str, _Inflight] = {}
        self._draining = False
        self._server: Optional[asyncio.AbstractServer] = None
        self._health_task: Optional[asyncio.Task] = None
        #: Single-thread executor for session/cache writes: off the
        #: event loop, because every put fsyncs.
        self._io: Optional[ThreadPoolExecutor] = None
        self.stats: Dict[str, int] = {
            "submitted": 0,
            "completed": 0,
            "rejected_overloaded": 0,
            "rejected_malformed": 0,
            "rejected_oversized": 0,
            "rejected_shutdown": 0,
            "failed": 0,
            "deadline_expired": 0,
            "coalesced": 0,
            "cache_hits": 0,
            "journal_hits": 0,
            "disconnects": 0,
        }

    @property
    def degraded(self) -> bool:
        """Whether worker loss has halved the pool."""
        return self._pool.degraded

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self) -> None:
        """Bind the socket and start the health loop."""
        self._io = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="twl-serve-io"
        )
        limit = MAX_FRAME_BYTES + 1024
        if self.config.unix_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self.config.unix_path, limit=limit
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection,
                host=self.config.host,
                port=self.config.port,
                limit=limit,
            )
        if self.config.health_interval > 0:
            self._health_task = asyncio.create_task(self._health_loop())

    @property
    def address(self) -> Any:
        """Bound address: ``(host, port)`` for TCP, the path for UNIX."""
        if self.config.unix_path is not None:
            return self.config.unix_path
        assert self._server is not None
        return self._server.sockets[0].getsockname()[:2]

    async def serve_forever(self) -> None:
        assert self._server is not None
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → drain-then-exit (CLI entry point only)."""
        import signal as _signal

        loop = asyncio.get_running_loop()
        for signum in (_signal.SIGTERM, _signal.SIGINT):
            loop.add_signal_handler(
                signum, lambda: asyncio.create_task(self.shutdown())
            )

    def begin_drain(self) -> None:
        """Stop admitting work; in-flight cells keep running."""
        self._draining = True

    async def shutdown(self) -> None:
        """Drain-then-exit: finish admitted cells, then close everything.

        Waits up to ``drain_grace`` for the admitted count to reach
        zero; cells still running after that are abandoned to their own
        worker-side deadlines (their results, if any, still land in the
        cache via the completion callbacks that remain alive
        until the loop stops).
        """
        self.begin_drain()
        deadline = self._clock() + self.config.drain_grace
        while self._active > 0 and self._clock() < deadline:
            await asyncio.sleep(0.02)
        if self._health_task is not None:
            self._health_task.cancel()
            self._health_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._pool.shutdown()
        io = self._io
        if io is not None:
            # Flush pending session/cache writes before releasing the
            # owner locks; clear the handle first so a late request
            # degrades to inline I/O instead of a scheduling error.
            self._io = None
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: io.shutdown(wait=True)
            )
        self._sessions.close()

    # ------------------------------------------------------------------
    # pool management

    def _gate(self) -> asyncio.Semaphore:
        """The worker-count gate of the supervisor's current pool.

        A rebuilt pool gets a fresh gate sized to its (possibly halved)
        width; cells still blocked on the old gate drain as its holders
        finish.
        """
        if self._gated is not self._pool.pool or self._pool_gate is None:
            self._gated = self._pool.pool
            self._pool_gate = asyncio.Semaphore(self._pool.workers)
        return self._pool_gate

    async def _health_loop(self) -> None:
        """Detect silently dead pools between requests and rebuild.

        The probe only decides "broken" on hard evidence: a
        ``BrokenProcessPool`` from the probe, or a probe timeout on a
        pool whose worker processes are all dead.  A timeout alone
        proves nothing — with every worker busy on long
        cells the probe just sits in the queue — so a loaded-but-alive
        pool is never torn down (which would cancel queued admitted
        cells and burn the degradation budget on phantom failures).
        Probes are skipped outright while cells are in flight: busy
        traffic will surface a genuinely broken pool on its own.
        """
        while not self._draining:
            await asyncio.sleep(self.config.health_interval)
            if self._active > 0:
                continue
            pool, probe_future = self._pool.submit(_probe)
            try:
                await asyncio.wait_for(
                    asyncio.wrap_future(probe_future),
                    timeout=max(self.config.health_interval, 1.0),
                )
            except asyncio.TimeoutError:
                # Inconclusive: a submission may have raced in ahead of
                # the probe.  Rebuild only if the workers are truly dead.
                probe_future.cancel()
                if not self._pool.looks_alive(pool):
                    self._pool.note_broken(pool)
            except BrokenProcessPool:
                self._pool.note_broken(pool)

    # ------------------------------------------------------------------
    # connection handling

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        record: Dict[str, Any],
    ) -> None:
        frame = encode_frame(record)
        async with lock:
            writer.write(frame)
            await writer.drain()

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        tasks: Set[asyncio.Task] = set()
        try:
            while True:
                try:
                    line = await asyncio.wait_for(
                        reader.readline(), timeout=self.config.idle_timeout
                    )
                except asyncio.TimeoutError:
                    # Idle (or slow-loris) connection: close once nothing
                    # is in flight for it; keep serving pending replies.
                    if not tasks:
                        break
                    continue
                except (ValueError, asyncio.LimitOverrunError):
                    # readline() overran the stream limit: an oversized
                    # frame.  The stream is beyond resync; answer
                    # structurally and close.
                    self.stats["rejected_oversized"] += 1
                    await self._send(
                        writer,
                        write_lock,
                        error_response(
                            None,
                            ERROR_OVERSIZED,
                            f"frame exceeds {MAX_FRAME_BYTES} bytes",
                            degraded=self.degraded,
                        ),
                    )
                    break
                if not line:
                    break  # clean EOF
                if not line.strip():
                    continue
                task = asyncio.create_task(
                    self._handle_frame(line, writer, write_lock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except (ConnectionError, BrokenPipeError):
            self.stats["disconnects"] += 1
        except asyncio.CancelledError:
            # Server shutdown cancels connection handlers; close quietly
            # (the task is ending either way — no need to re-raise).
            pass
        finally:
            for task in tasks:
                task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError, asyncio.CancelledError):
                self.stats["disconnects"] += 1

    async def _handle_frame(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        try:
            response = await self._respond_to(line)
        except asyncio.CancelledError:
            raise
        except Exception as error:  # noqa: BLE001 - the handler must survive
            # A handler bug must fail the request, never the server.
            self.stats["failed"] += 1
            response = error_response(
                None, ERROR_FAILED, f"internal error: {error}", degraded=self.degraded
            )
        try:
            await self._send(writer, write_lock, response)
        except (ConnectionError, BrokenPipeError):
            self.stats["disconnects"] += 1

    # ------------------------------------------------------------------
    # request execution

    async def _respond_to(self, line: bytes) -> Dict[str, Any]:
        try:
            frame = decode_frame(line)
        except ProtocolError as error:
            self.stats["rejected_malformed"] += 1
            return error_response(
                None, ERROR_MALFORMED, str(error), degraded=self.degraded
            )
        request_id = frame["id"]
        op = frame["op"]
        if op == OP_PING:
            return {
                "format": PROTOCOL_VERSION,
                "id": request_id,
                "ok": True,
                "status": "pong",
                "degraded": self.degraded,
            }
        if op == OP_STATS:
            return {
                "format": PROTOCOL_VERSION,
                "id": request_id,
                "ok": True,
                "status": "stats",
                "degraded": self.degraded,
                "stats": dict(self.stats, pool_rebuilds=self._pool.rebuilds),
                "active": self._active,
                "draining": self._draining,
                "workers": self._pool.workers,
                "sessions": self._sessions.open_count(),
            }
        return await self._respond_submit(frame, request_id)

    def _parse_submit(self, frame: Dict[str, Any]) -> SubmitRequest:
        session = frame.get("session", DEFAULT_SESSION)
        if not valid_session_name(session):
            raise ProtocolError(f"invalid session name {session!r}")
        deadline = frame.get("deadline", None)
        if deadline is not None:
            if not isinstance(deadline, (int, float)) or deadline <= 0:
                raise ProtocolError(f"deadline must be positive, got {deadline!r}")
            deadline = float(deadline)
        cell = decode_cell(frame.get("cell"))
        return SubmitRequest(
            cell=cell,
            session=session,
            request_id=frame["id"],
            deadline=deadline if deadline is not None else self.config.default_deadline,
        )

    async def _respond_submit(
        self, frame: Dict[str, Any], request_id: str
    ) -> Dict[str, Any]:
        if self._draining:
            self.stats["rejected_shutdown"] += 1
            return error_response(
                request_id,
                ERROR_SHUTDOWN,
                "server is draining; resubmit elsewhere",
                degraded=self.degraded,
            )
        try:
            request = self._parse_submit(frame)
            fingerprint = cell_fingerprint(request.cell)
        except (ProtocolError, ReproError) as error:
            self.stats["rejected_malformed"] += 1
            return error_response(
                request_id, ERROR_MALFORMED, str(error), degraded=self.degraded
            )
        self.stats["submitted"] += 1
        started = self._clock()

        def done(result: CellResult, source: str) -> Dict[str, Any]:
            self.stats["completed"] += 1
            record = encode_result_payload(result)
            record.update(
                {
                    "format": PROTOCOL_VERSION,
                    "id": request.request_id,
                    "ok": True,
                    "status": "done",
                    "source": source,
                    "fingerprint": fingerprint,
                    "seconds": round(self._clock() - started, 6),
                    "degraded": self.degraded,
                }
            )
            return record

        # 1. The session's own directory: a restarted server resumes
        #    here.  The wire calls such a hit ``journal``.  Lookups read
        #    small local files on the loop: a hop to the I/O thread costs
        #    more than the read.  Only fsync'd writes leave the loop.
        try:
            session = self._sessions.cache_for(request.session)
        except ConfigError as error:
            self.stats["failed"] += 1
            return error_response(
                request_id, ERROR_FAILED, str(error), degraded=self.degraded
            )
        resumed = session.get(fingerprint)
        if resumed is not None:
            self.stats["journal_hits"] += 1
            return done(resumed, "journal")
        # 2. The shared content-addressed cache, copied into the session
        #    so the session alone can resume it.
        if self._cache is not None:
            hit = self._cache.get(fingerprint)
            if hit is not None:
                self.stats["cache_hits"] += 1
                await self._persist(
                    session, request.cell, fingerprint, hit, cache=False
                )
                return done(hit, "cache")
        # 3. Coalesce onto an in-flight duplicate.
        entry = self._inflight.get(fingerprint)
        if entry is not None:
            self.stats["coalesced"] += 1
            source = "coalesced"
        else:
            # 4. Bounded admission.
            if self._active >= self.config.queue_limit:
                self.stats["rejected_overloaded"] += 1
                return error_response(
                    request_id,
                    ERROR_OVERLOADED,
                    f"admission queue full ({self.config.queue_limit} in "
                    "flight); retry with backoff",
                    degraded=self.degraded,
                )
            # 5. Execute (later duplicates coalesce onto this future).
            entry = self._admit(request.cell, fingerprint, request.deadline)
            source = "run"
        try:
            result = await self._await_entry(entry, fingerprint)
        except CellTimeoutError as error:
            self.stats["deadline_expired"] += 1
            return error_response(
                request_id, ERROR_DEADLINE, str(error), degraded=self.degraded
            )
        except _ExecutionCancelled as error:
            if self._draining:
                self.stats["rejected_shutdown"] += 1
                code = ERROR_SHUTDOWN
            else:
                self.stats["failed"] += 1
                code = ERROR_FAILED
            return error_response(
                request_id, code, str(error), degraded=self.degraded
            )
        except ReproError as error:
            self.stats["failed"] += 1
            return error_response(
                request_id, ERROR_FAILED, str(error), degraded=self.degraded
            )
        await self._persist(
            session, request.cell, fingerprint, result, cache=(source == "run")
        )
        return done(result, source)

    def _admit(
        self,
        cell: ExperimentCell,
        fingerprint: str,
        deadline: Optional[float],
    ) -> _Inflight:
        """Admit one execution; bookkeeping is tied to future settlement.

        ``_active`` and the in-flight map are released by a done
        callback on the execution future itself — not by whichever
        request task happens to finish first — so a cancelled submitter
        can never leak (or double-release) an admission slot while a
        coalesced waiter still runs.
        """
        self._active += 1
        future = asyncio.ensure_future(self._execute(cell, fingerprint, deadline))
        entry = _Inflight(future=future)
        self._inflight[fingerprint] = entry

        def settled(_: "asyncio.Future[CellResult]") -> None:
            self._active -= 1
            if self._inflight.get(fingerprint) is entry:
                self._inflight.pop(fingerprint, None)

        future.add_done_callback(settled)
        return entry

    async def _await_entry(self, entry: _Inflight, fingerprint: str) -> CellResult:
        """Await an execution as one registered waiter.

        The shield keeps one client's disconnect from cancelling an
        execution other clients coalesced onto; the *last* waiter to be
        cancelled takes the execution down with it (an unstarted pool
        future is reclaimed immediately; a cell already on a worker
        runs to completion there and lands in the cache, so the work is
        banked, not wasted).

        A ``CancelledError`` out of the shield is ambiguous: either
        *this waiter's task* is being cancelled (client gone, server
        stopping the handler — propagate, the connection is dying
        anyway) or the *execution future itself* was cancelled out from
        under a perfectly live waiter (pool rebuild with
        ``cancel_futures=True``, shutdown past ``drain_grace``).  The
        second case must become a structured error frame — re-raising
        would kill the handler task without ever answering the client,
        which accepted-and-admitted work must never do.
        """
        entry.waiters += 1
        cancelled = False
        try:
            return await asyncio.shield(entry.future)
        except asyncio.CancelledError:
            task = asyncio.current_task()
            if entry.future.cancelled() and (task is None or not task.cancelling()):
                raise _ExecutionCancelled(
                    "execution cancelled before completion "
                    "(pool rebuild or server shutdown); resubmit"
                ) from None
            cancelled = True
            raise
        finally:
            entry.waiters -= 1
            if cancelled and entry.waiters <= 0 and not entry.future.done():
                entry.future.cancel()

    async def _run_io(self, func: Callable[..., Any], *args: Any) -> Any:
        """Run blocking session/cache writes off the event-loop thread.

        A dedicated single-thread executor never stalls the loop on an
        fsync — a slow disk would otherwise freeze every connection.
        In the shutdown tail, after the executor has been drained, the
        call degrades to inline execution: the loop is about to stop,
        and dropping the final persist would be worse than blocking.
        """
        io = self._io
        if io is None:
            return func(*args)
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(io, func, *args)
        except RuntimeError:
            if self._io is not None:
                raise
            return func(*args)

    async def _persist(
        self,
        session: CellCache,
        cell: ExperimentCell,
        fingerprint: str,
        result: CellResult,
        cache: bool,
    ) -> None:
        """Bank a result durably (session always; cache for fresh runs)."""

        def write() -> None:
            session.put(cell, fingerprint, result)
            if cache and self._cache is not None:
                self._cache.put(cell, fingerprint, result)

        await self._run_io(write)

    def _bank_abandoned(
        self, pool_future: PoolFuture, cell: ExperimentCell, fingerprint: str
    ) -> None:
        """Bank the eventual result of a pool future nobody awaits.

        An abandoned cell already running on a worker completes there
        regardless (``Future.cancel`` cannot reach it); without this,
        its result would evaporate.  The done callback runs on the
        executor's management thread — off the event loop — and puts
        the result in the shared content-addressed cache, so the next
        submission of the same cell is a cache hit instead of a re-run.
        """
        if self._cache is None:
            return
        cache = self._cache

        def bank(future: PoolFuture) -> None:
            if future.cancelled() or future.exception() is not None:
                return
            with contextlib.suppress(Exception):
                cache.put(cell, fingerprint, future.result()[0])

        pool_future.add_done_callback(bank)

    async def _execute(
        self,
        cell: ExperimentCell,
        fingerprint: str,
        deadline: Optional[float],
    ) -> CellResult:
        """Run one cell on the pool, retrying across worker loss.

        Submission is throttled by :meth:`_gate`, a semaphore sized to
        the pool's width: the pool never holds more cells than it can
        actually execute, so queueing happens here in asyncio-land —
        uncharged against the deadline, and instantly reclaimed on
        cancellation.  (``ProcessPoolExecutor`` marks a future running
        once it enters its bounded call queue, *before* a worker picks
        it up, so an ungated pool cannot tell "queued behind a slow
        cell" from "executing" — and the parent-side backstop would
        misfire on merely-queued cells.)  Past the gate, a cell is on a
        worker at once: the worker-side :class:`CellDeadline` and the
        parent-side ``deadline + grace`` backstop start together, and a
        backstop expiry is hard evidence of a wedged worker — the pool
        is rebuilt on the spot to reclaim it.  The same bound is what
        lets a one-worker pool's break name its dying cell.
        """
        attempt = 0
        while True:
            gate = self._gate()
            async with gate:
                if gate is not self._gate():
                    continue  # the pool was rebuilt while this cell queued
                try:
                    pool, pool_future = self._pool.submit(_execute_one, cell, deadline)
                except RuntimeError:
                    raise _ExecutionCancelled(
                        "execution cancelled before it started (server shutdown); resubmit"
                    ) from None
                try:
                    # The worker's own run time is dropped: a response's
                    # ``seconds`` is the server-side time of the request.
                    result, _ = await asyncio.wait_for(
                        asyncio.wrap_future(pool_future),
                        timeout=None if deadline is None else deadline + DEADLINE_GRACE,
                    )
                    return result
                except asyncio.TimeoutError:
                    # The worker failed to enforce its own budget
                    # (wedged in a C call); answer the client now,
                    # rebuild the pool to reclaim the wedged worker,
                    # and bank the result if the cell ever finishes.
                    pool_future.cancel()
                    self._bank_abandoned(pool_future, cell, fingerprint)
                    self._pool.note_broken(pool)
                    raise CellTimeoutError(
                        f"cell {cell.describe()} missed its {deadline:.6g}s "
                        "deadline (worker unresponsive)"
                    ) from None
                except BrokenProcessPool as error:
                    if not self._pool.note_broken(pool):
                        continue  # a wider pool broke: resubmit free
                    attempt += 1
                    if attempt > self.config.max_retries:
                        raise CellExecutionError(
                            f"cell {cell.describe()}: worker died "
                            f"{attempt} time(s): {error}"
                        ) from None
                except asyncio.CancelledError:
                    # Last waiter gone: the cell is already on a worker
                    # (the gate saw to that), so it finishes there and
                    # its result is banked in the cache.
                    pool_future.cancel()
                    self._bank_abandoned(pool_future, cell, fingerprint)
                    raise
            # Worker-loss retry: back off outside the gate (the slot
            # belongs to the rebuilt pool's fresh gate).
            delay = retry_delay(fingerprint, attempt)
            if delay > 0:
                await asyncio.sleep(delay)
