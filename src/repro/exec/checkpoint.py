"""Campaign checkpoint journal: crash-safe progress on disk.

A 40-cell Figure-6 sweep that dies at cell 37 — power cut, OOM kill,
Ctrl-C — should cost 3 cells to finish, not 40.  The result cache
already gives that *when it is enabled and trusted*; the journal gives
it unconditionally.  :class:`CheckpointJournal` is an **append-only
JSONL manifest** recording, per cell, a ``done`` line (with the
serialized result payload, via the same
:func:`~repro.exec.cache.encode_result` codec as the cache — so a
resumed result is bit-identical to a recomputed one) or a ``failed``
line (message only; failed cells are re-run on resume).

Crash-safety model:

* Every record is appended as one ``write()`` of a single
  ``json.dumps`` line followed by ``flush`` + ``fsync`` — a record is
  either durably complete or it is the final, truncated line.
* The reader tolerates exactly that: lines that fail to decode are
  skipped (the matching cell simply re-runs), so a journal truncated
  mid-write by a crash is still a valid resume point.
* Appending never rewrites history; duplicate ``done`` lines for one
  fingerprint are harmless (last wins on load, first wins in memory).

The journal lives wherever the caller points it — conventionally next
to the cache (``<cache_dir>/checkpoint.jsonl``, what the CLI's
``--resume`` defaults to writing) — but depends on the cache in no
way: ``--no-cache --resume manifest.jsonl`` still skips finished
cells, because the payload rides in the journal line itself.

Concurrency model (the campaign server runs many sessions at once):

* Every ``_append`` and the whole read→rewrite→rename of ``compact()``
  run under an **advisory ``flock``** on a ``<path>.lock`` sidecar, so
  two writers sharing one journal can never interleave bytes within a
  record, and a concurrent ``compact()`` can never drop a record that
  an appender fsync'd between compact's read and its rename.  The lock
  is per-open-file-description, so it excludes both threads and
  processes.
* A journal opened with ``exclusive=True`` additionally takes an
  **owner lock** (``<path>.owner``): an atomic ``os.link`` of a
  pid-bearing temp file, so the lock file carries its owner's pid from
  the instant it exists.  A second exclusive open fails fast with
  :class:`~repro.errors.ConfigError` instead of silently sharing the
  session.  A lock whose recorded pid is dead is stale (the owner
  crashed without :meth:`close`) and is broken automatically.  The
  session store in :mod:`repro.serve` opens every per-session journal
  this way.
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import Dict, Iterator, Optional

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from ..errors import ConfigError
from .cache import decode_result, encode_result
from .cells import CellResult, ExperimentCell

#: Per-line schema version.
JOURNAL_FORMAT_VERSION = 1

#: Record statuses.
STATUS_DONE = "done"
STATUS_FAILED = "failed"

#: Journal size (bytes) past which opening auto-compacts.  Long
#: retry-heavy campaigns append a ``failed`` line per exhausted cell
#: and a ``done`` line per eventual success; only the latest record per
#: fingerprint matters on load, so everything else is dead weight read
#: and skipped on every open.
DEFAULT_COMPACT_BYTES = 1 << 20


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (signal-0 probe)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, not ours
        return True
    except OSError:  # pragma: no cover - defensive
        return False
    return True


class CheckpointJournal:
    """Append-only JSONL manifest of completed/failed campaign cells.

    Opening a path that already has records *is* resuming: existing
    ``done`` results load into memory and
    :meth:`result_for` serves them so the executor never re-runs those
    cells.  ``resumed`` counts the records found at open time so
    callers can report how much work the journal saved.
    """

    def __init__(
        self,
        path: str,
        compact_bytes: Optional[int] = DEFAULT_COMPACT_BYTES,
        exclusive: bool = False,
    ) -> None:
        self.path = path
        self._done: Dict[str, CellResult] = {}
        self._owns_exclusive = False
        parent = os.path.dirname(os.path.abspath(path))
        try:
            os.makedirs(parent, exist_ok=True)
        except OSError as error:
            raise ConfigError(
                f"checkpoint journal location {path!r} is not usable: {error}"
            ) from error
        if os.path.isdir(path):
            raise ConfigError(
                f"checkpoint journal path {path!r} is a directory"
            )
        if exclusive:
            self._acquire_owner_lock()
        self._load()
        self.resumed = len(self._done)
        if compact_bytes is not None:
            try:
                size = os.path.getsize(self.path)
            except OSError:
                size = 0
            if size >= compact_bytes:
                self.compact()

    @property
    def _lock_path(self) -> str:
        return f"{self.path}.lock"

    @property
    def _owner_path(self) -> str:
        return f"{self.path}.owner"

    @contextlib.contextmanager
    def _write_lock(self) -> Iterator[None]:
        """Advisory exclusive lock serializing append/compact writers.

        Taken on a ``.lock`` sidecar (never the journal itself:
        ``compact`` renames over the journal, which would orphan a lock
        held on the replaced inode).  No-op where ``fcntl`` is missing
        — single-writer use, the historical contract, stays safe there.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            yield
            return
        handle = os.open(self._lock_path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(handle, fcntl.LOCK_EX)
            yield
        finally:
            # Closing releases the flock atomically with the fd.
            os.close(handle)

    def _acquire_owner_lock(self) -> None:
        """Take the per-session owner lock, breaking stale ones.

        The lock is taken by ``os.link``-ing a pid-bearing temp file to
        the owner path: link is atomic *with its content*, so a
        contender can never observe a live owner's lock file before its
        pid lands in it (the old ``O_EXCL``-create-then-write protocol
        had exactly that window, and the contender would break the
        "empty garbage" lock out from under a live owner).  A lock file
        that *is* unreadable therefore never belongs to a live owner: it
        is removed and re-contended, and the link re-arbitrates the
        remove+retry race against other breakers safely.
        """
        # Unique per journal instance, not just per pid: two threads in
        # one process contending for the same path must not share (and
        # unlink) each other's temp file.
        tmp = f"{self._owner_path}.{os.getpid()}.{id(self):x}.tmp"
        try:
            with open(tmp, "w") as handle:
                handle.write(f"{os.getpid()}\n")
                handle.flush()
                os.fsync(handle.fileno())
            for _ in range(2):
                try:
                    os.link(tmp, self._owner_path)
                except FileExistsError:
                    owner_pid = self._read_owner_pid()
                    if owner_pid is not None and _pid_alive(owner_pid):
                        raise ConfigError(
                            f"checkpoint journal {self.path!r} is exclusively "
                            f"owned by live session pid {owner_pid}"
                        ) from None
                    # Stale (crashed owner, or garbage no live owner
                    # could have produced): break it and retry.
                    with contextlib.suppress(OSError):
                        os.unlink(self._owner_path)
                    continue
                self._owns_exclusive = True
                return
            raise ConfigError(
                f"checkpoint journal {self.path!r}: could not acquire "
                "exclusive owner lock (contended)"
            )
        finally:
            with contextlib.suppress(OSError):
                os.unlink(tmp)

    def _read_owner_pid(self) -> Optional[int]:
        try:
            with open(self._owner_path) as handle:
                return int(handle.read().strip())
        except (OSError, ValueError):
            return None

    def close(self) -> None:
        """Release the exclusive owner lock, if held.  Idempotent."""
        if self._owns_exclusive:
            self._owns_exclusive = False
            # Only remove the file if it is still ours: a breaker that
            # (wrongly) judged us dead must not have its lock stolen.
            if self._read_owner_pid() == os.getpid():
                with contextlib.suppress(OSError):
                    os.unlink(self._owner_path)

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _load(self) -> None:
        try:
            with open(self.path) as handle:
                lines = handle.readlines()
        except FileNotFoundError:
            return
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                # A crash mid-append leaves at most one truncated line;
                # skipping it just re-runs that cell.  (Any other
                # garbage line degrades the same way: a re-run, never
                # a wrong result.)
                continue
            if not isinstance(record, dict):
                continue
            if record.get("format") != JOURNAL_FORMAT_VERSION:
                continue
            fingerprint = record.get("fingerprint")
            if not isinstance(fingerprint, str):
                continue
            if record.get("status") == STATUS_DONE:
                try:
                    result = decode_result(record["kind"], record["payload"])
                except (KeyError, TypeError, ValueError):
                    continue
                self._done[fingerprint] = result

    def compact(self) -> int:
        """Rewrite the journal keeping the winning record per fingerprint.

        The load rules (``done`` beats ``failed``; among ``done`` lines
        the last wins) mean every superseded line is pure read-and-skip
        overhead on subsequent opens.  This rewrites the file to exactly
        one record per fingerprint — the one ``_load`` would keep — in
        sorted fingerprint order, via the atomic tmp-then-rename
        protocol, and returns how many lines were dropped.  Garbage
        lines (truncated, wrong format) are dropped too; they carry no
        resumable state.  A no-op (0 returned, file untouched) when
        nothing would be dropped.

        Runs entirely under the journal's advisory write lock: a
        concurrent appender either lands before compact's read (and its
        record survives into the rewrite) or after the rename (and
        appends to the compacted file) — an acknowledged record can
        never fall into the read→rename window and be lost.
        """
        with self._write_lock():
            return self._compact_locked()

    def _compact_locked(self) -> int:
        try:
            with open(self.path) as handle:
                lines = handle.readlines()
        except FileNotFoundError:
            return 0
        survivors: Dict[str, Dict] = {}
        total = 0
        for line in lines:
            line = line.strip()
            if not line:
                continue
            total += 1
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(record, dict):
                continue
            if record.get("format") != JOURNAL_FORMAT_VERSION:
                continue
            fingerprint = record.get("fingerprint")
            if not isinstance(fingerprint, str):
                continue
            status = record.get("status")
            if status == STATUS_DONE:
                survivors[fingerprint] = record
            elif status == STATUS_FAILED:
                kept = survivors.get(fingerprint)
                if kept is None or kept.get("status") != STATUS_DONE:
                    survivors[fingerprint] = record
        dropped = total - len(survivors)
        if dropped <= 0:
            return 0
        tmp = f"{self.path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w") as handle:
                for fingerprint in sorted(survivors):
                    handle.write(
                        json.dumps(survivors[fingerprint], sort_keys=True) + "\n"
                    )
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return dropped

    def _append(self, record: Dict) -> None:
        line = json.dumps(record, sort_keys=True) + "\n"
        # Open *inside* the lock: a concurrent compact() renames a new
        # inode over the path, and an fd opened before the lock could be
        # appending to the replaced (deleted) file.
        with self._write_lock():
            with open(self.path, "ab") as handle:
                if handle.tell() > 0:
                    # A crash can leave a truncated, newline-less final
                    # line; terminate it first so the new record starts
                    # on its own line instead of merging into the
                    # garbage.
                    with open(self.path, "rb") as reader:
                        reader.seek(-1, os.SEEK_END)
                        if reader.read(1) != b"\n":
                            handle.write(b"\n")
                handle.write(line.encode())
                handle.flush()
                os.fsync(handle.fileno())

    def __len__(self) -> int:
        return len(self._done)

    def result_for(self, fingerprint: str) -> Optional[CellResult]:
        """The completed result recorded for ``fingerprint``, or None."""
        return self._done.get(fingerprint)

    def record_done(
        self,
        cell: ExperimentCell,
        fingerprint: str,
        result: CellResult,
        seconds: float = 0.0,
    ) -> None:
        """Durably record a completed cell (idempotent per fingerprint)."""
        if fingerprint in self._done:
            return
        kind, payload = encode_result(result)
        self._append(
            {
                "format": JOURNAL_FORMAT_VERSION,
                "status": STATUS_DONE,
                "fingerprint": fingerprint,
                "cell": cell.describe(),
                "kind": kind,
                "payload": payload,
                "seconds": round(seconds, 3),
            }
        )
        self._done[fingerprint] = result

    def record_failed(
        self, cell: ExperimentCell, fingerprint: str, error: str
    ) -> None:
        """Durably record a cell that exhausted its retry budget."""
        self._append(
            {
                "format": JOURNAL_FORMAT_VERSION,
                "status": STATUS_FAILED,
                "fingerprint": fingerprint,
                "cell": cell.describe(),
                "error": error,
            }
        )
