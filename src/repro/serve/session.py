"""Per-session durable state for the campaign server.

Every submission names a *session* — a client-chosen label scoping its
durable progress.  Each session owns one result directory under the
server's state directory (``<state_dir>/sessions/<name>/``), an
ordinary :class:`~repro.exec.cache.CellCache`: results are stored there
as they complete, so a server killed mid-campaign and restarted on the
same state directory serves every already-completed cell of every
session from it — bit-identically, by the result-codec identity
contract every cache directory shares.

An :class:`~repro.exec.cache.OwnerLock` on each session directory is
what makes per-session state safe under the server's concurrency model:
one live server owns a session; a second server pointed at the same
state directory fails fast on that session instead of sharing it, while
a lock left by a SIGKILLed server is detected as stale (dead pid) and
broken on restart — the resume path.
"""

from __future__ import annotations

import os
import re
import threading
from typing import Dict, Tuple

from ..exec.cache import CellCache, OwnerLock

__all__ = ["SessionStore", "valid_session_name", "DEFAULT_SESSION"]

#: Session used when a submit frame names none.
DEFAULT_SESSION = "default"

#: Session names are path components: one conservative token, no
#: separators, no dotfiles — a hostile name must never escape the
#: sessions directory.
_SESSION_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


def valid_session_name(name: str) -> bool:
    """Whether ``name`` is an acceptable session label."""
    return isinstance(name, str) and bool(_SESSION_NAME.match(name))


class SessionStore:
    """Lazily-opened, exclusively-owned per-session result directories.

    Thread-safe: a plain lock guards the open-once map.  The server
    opens sessions and reads them on its event loop, and stores results
    on its I/O thread (every put fsyncs).
    """

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        self._sessions: Dict[str, Tuple[CellCache, OwnerLock]] = {}
        self._lock = threading.Lock()

    def cache_for(self, session: str) -> CellCache:
        """The session's result directory, owner-locked on first use.

        Raises :class:`~repro.errors.ConfigError` when another live
        process owns the session — surfaced to the client as a
        structured rejection, never a crash.
        """
        with self._lock:
            entry = self._sessions.get(session)
            if entry is None:
                cache = CellCache(os.path.join(self.root, session))
                entry = (cache, OwnerLock(cache.directory))
                self._sessions[session] = entry
            return entry[0]

    def open_count(self) -> int:
        with self._lock:
            return len(self._sessions)

    def close(self) -> None:
        """Release every session's owner lock.  Idempotent."""
        with self._lock:
            for _, lock in self._sessions.values():
                lock.release()
            self._sessions.clear()
