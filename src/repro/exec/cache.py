"""Content-addressed on-disk cache of experiment-cell results.

Every cell is deterministic given its spec (see
:mod:`repro.exec.cells`), so its result can be stored once and replayed
forever — a full ``twl-repro all`` campaign re-run after an unrelated
edit becomes near-instant.  Entries live one-file-per-cell under a
cache directory (default ``~/.cache/twl-repro/``, override with
``--cache-dir`` / ``TWL_REPRO_CACHE_DIR``), named by the cell's
:func:`~repro.exec.hashing.cell_fingerprint`:

    ~/.cache/twl-repro/
        6c53…e2a1.json    {"cell": "twl_swp×scan seed=2017", "kind": …}

One file per entry (rather than one big JSON) keeps concurrent
campaigns safe: writes go through
:func:`~repro.engine.snapshot.atomic_write` (temp file, fsync, atomic
``os.replace``), so two processes caching the same cell simply produce
the same file, and an entry that ``put`` returned from survives a crash.

Invalidation is by construction: the fingerprint covers the cell spec
and the result-bearing source code
(:func:`~repro.exec.hashing.code_digest`), so any spec or code change
maps to a fresh key and the stale file is simply never read again.

The same store doubles as a campaign's resume point (``--resume DIR``)
and as the campaign server's per-session state: both are just cache
directories.  A directory that one live process must own alone (a
server session) is guarded by an :class:`OwnerLock`.
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import Dict, Optional, Tuple

from ..engine.snapshot import atomic_write
from ..errors import ConfigError
from ..pcm.faults import FirstFailure
from ..sim.lifetime import LifetimeResult
from ..sim.metrics import SchemeOverheads
from .cells import CellResult, ExperimentCell
from .faults import maybe_corrupt
from .hashing import CACHE_FORMAT_VERSION

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "TWL_REPRO_CACHE_DIR"


def default_cache_dir() -> str:
    """The default on-disk cache location.

    ``$TWL_REPRO_CACHE_DIR`` wins, then ``$XDG_CACHE_HOME/twl-repro``,
    then ``~/.cache/twl-repro``.
    """
    override = os.environ.get(CACHE_DIR_ENV, "").strip()
    if override:
        return override
    xdg = os.environ.get("XDG_CACHE_HOME", "").strip()
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "twl-repro")


def _serialize_lifetime(result: LifetimeResult) -> Dict:
    # The failure record is reduced to its three integers; soft-error
    # counters are key-sorted so equal results encode identically.
    record = {
        "scheme": result.scheme,
        "workload": result.workload,
        "n_pages": result.n_pages,
        "endurance_mean": result.endurance_mean,
        "demand_writes": result.demand_writes,
        "device_writes": result.device_writes,
        "failed": result.failed,
        "estimation": result.estimation,
    }
    if result.failure is not None:
        record["failure"] = {
            "physical_page": result.failure.physical_page,
            "device_writes": result.failure.device_writes,
            "page_endurance": result.failure.page_endurance,
        }
    if result.soft_errors is not None:
        record["soft_errors"] = {
            key: result.soft_errors[key] for key in sorted(result.soft_errors)
        }
    return record


def _deserialize_lifetime(record: Dict) -> LifetimeResult:
    failure = None
    if "failure" in record:
        failure = FirstFailure(
            physical_page=record["failure"]["physical_page"],
            device_writes=record["failure"]["device_writes"],
            page_endurance=record["failure"]["page_endurance"],
        )
    return LifetimeResult(
        scheme=record["scheme"],
        workload=record["workload"],
        n_pages=record["n_pages"],
        endurance_mean=record["endurance_mean"],
        demand_writes=record["demand_writes"],
        device_writes=record["device_writes"],
        failed=record["failed"],
        failure=failure,
        estimation=record.get("estimation", "exact"),
        soft_errors=record.get("soft_errors"),
    )


def _serialize_overheads(result: SchemeOverheads) -> Dict:
    return {
        "scheme": result.scheme,
        "workload": result.workload,
        "demand_writes": result.demand_writes,
        "swap_write_ratio": result.swap_write_ratio,
        "swap_event_ratio": result.swap_event_ratio,
        "extra_stats": dict(result.extra_stats),
    }


def _deserialize_overheads(record: Dict) -> SchemeOverheads:
    return SchemeOverheads(
        scheme=record["scheme"],
        workload=record["workload"],
        demand_writes=record["demand_writes"],
        swap_write_ratio=record["swap_write_ratio"],
        swap_event_ratio=record["swap_event_ratio"],
        extra_stats=dict(record["extra_stats"]),
    )


def encode_result(result: CellResult) -> Tuple[str, Dict]:
    """``(kind, payload)`` JSON form of a cell result.

    Shared by the cache and the campaign server's wire frames, so a
    result served from either round-trips identically — the identity
    contract for cached, resumed and served campaigns rides on this.
    """
    if isinstance(result, LifetimeResult):
        return "lifetime", _serialize_lifetime(result)
    return "overheads", _serialize_overheads(result)


def decode_result(kind: str, payload: Dict) -> CellResult:
    """Inverse of :func:`encode_result`."""
    if kind == "overheads":
        return _deserialize_overheads(payload)
    return _deserialize_lifetime(payload)


class CellCache:
    """File-per-entry result cache addressed by cell fingerprint.

    ``hits`` / ``misses`` / ``corrupt`` count lookups over the
    instance's lifetime so callers (the CLI cache summary, the
    acceptance test) can report cache effectiveness.  ``corrupt``
    counts entries that existed but failed to decode — each one is
    also a miss, and the bad file is quarantined as
    ``<fingerprint>.json.corrupt`` for post-mortem instead of being
    silently overwritten.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        # Fail fast on an unusable location (e.g. --cache-dir pointing
        # at a regular file) instead of mid-campaign on the first put.
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as error:
            raise ConfigError(
                f"cache directory {directory!r} is not usable: {error}"
            ) from error

    def path_for(self, fingerprint: str) -> str:
        """File backing one cache entry."""
        return os.path.join(self.directory, f"{fingerprint}.json")

    def _quarantine(self, path: str) -> None:
        """Move a corrupt entry aside as ``<name>.corrupt``."""
        try:
            os.replace(path, f"{path}.corrupt")
        except OSError:
            # Quarantine is best-effort; a vanished or unmovable file
            # still decodes as a miss and gets rewritten on put().
            pass

    def get(self, fingerprint: str) -> Optional[CellResult]:
        """Cached result under ``fingerprint``, or None.

        A missing entry is a plain miss.  An entry that exists but
        fails to decode is a miss *and* increments ``corrupt``; the bad
        file is renamed to ``<fingerprint>.json.corrupt`` so a
        half-written or bit-rotted file can never poison a campaign yet
        stays around for diagnosis.
        """
        path = self.path_for(fingerprint)
        try:
            with open(path) as handle:
                record = json.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self.misses += 1
            self.corrupt += 1
            self._quarantine(path)
            return None
        if not isinstance(record, dict):
            self.misses += 1
            self.corrupt += 1
            self._quarantine(path)
            return None
        if record.get("format") != CACHE_FORMAT_VERSION:
            self.misses += 1
            return None
        try:
            result = decode_result(record["kind"], record["payload"])
        except (KeyError, TypeError, ValueError):
            self.misses += 1
            self.corrupt += 1
            self._quarantine(path)
            return None
        self.hits += 1
        return result

    def put(
        self, cell: ExperimentCell, fingerprint: str, result: CellResult
    ) -> None:
        """Durably persist ``result`` under the cell's ``fingerprint``."""
        os.makedirs(self.directory, exist_ok=True)
        kind, payload = encode_result(result)
        record = {
            "format": CACHE_FORMAT_VERSION,
            "cell": cell.describe(),
            "kind": kind,
            "payload": payload,
        }
        path = self.path_for(fingerprint)
        atomic_write(path, json.dumps(record, sort_keys=True).encode())
        maybe_corrupt(fingerprint, path)

    def summary(self) -> str:
        """One-line hit/miss/corrupt report for the CLI progress stream."""
        line = f"cache: {self.hits} hit(s), {self.misses} miss(es)"
        if self.corrupt:
            line += f", {self.corrupt} corrupt entr(ies) quarantined"
        return line

    def __len__(self) -> int:
        if not os.path.isdir(self.directory):
            return 0
        return sum(1 for name in os.listdir(self.directory) if name.endswith(".json"))


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


class OwnerLock:
    """Exclusive ownership of a directory by one live process.

    Taken on construction by ``os.link``-ing a pid-bearing temp file to
    ``<directory>/owner.lock``: link is atomic *with its content*, so a
    contender never observes a live owner's lock file before its pid
    lands in it.  A second owner fails fast with
    :class:`~repro.errors.ConfigError`.  A lock whose pid is dead (its
    owner crashed without :meth:`release`) or that is unreadable (no
    live owner could have produced it) is broken and re-contended; the
    link re-arbitrates that race against other breakers safely.

    The lock excludes owners only: opening a :class:`CellCache` on the
    directory is unaffected.  The campaign server takes one per
    session directory.
    """

    def __init__(self, directory: str) -> None:
        self.path = os.path.join(directory, "owner.lock")
        self._held = False
        # Unique per instance, not just per pid: two threads in one
        # process contending for the same path must not share (and
        # unlink) each other's temp file.
        tmp = f"{self.path}.{os.getpid()}.{id(self):x}.tmp"
        try:
            with open(tmp, "w") as handle:
                handle.write(f"{os.getpid()}\n")
            for _ in range(2):
                try:
                    os.link(tmp, self.path)
                except FileExistsError:
                    owner = self._owner_pid()
                    if owner is not None and _pid_alive(owner):
                        raise ConfigError(
                            f"{directory!r} is exclusively owned by live "
                            f"process pid {owner}"
                        ) from None
                    with contextlib.suppress(OSError):
                        os.unlink(self.path)
                    continue
                self._held = True
                return
            raise ConfigError(
                f"{directory!r}: could not acquire the owner lock (contended)"
            )
        finally:
            with contextlib.suppress(OSError):
                os.unlink(tmp)

    def _owner_pid(self) -> Optional[int]:
        try:
            with open(self.path) as handle:
                return int(handle.read().strip())
        except (OSError, ValueError):
            return None

    def release(self) -> None:
        """Give the directory up.  Idempotent."""
        if self._held:
            self._held = False
            # Only remove the file if it is still ours: a breaker that
            # (wrongly) judged us dead must not have its lock stolen.
            if self._owner_pid() == os.getpid():
                with contextlib.suppress(OSError):
                    os.unlink(self.path)

    def __enter__(self) -> "OwnerLock":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()
