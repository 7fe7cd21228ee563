"""Per-session durable state for the campaign server.

Every submission names a *session* — a client-chosen label scoping its
durable progress.  Each session owns one exclusively-locked
:class:`~repro.exec.checkpoint.CheckpointJournal` under the server's
state directory (``<state_dir>/sessions/<name>.jsonl``): results are
journaled as they complete, so a server killed mid-campaign and
restarted on the same state directory serves every already-completed
cell of every session from its journal — bit-identically, by the
result-codec identity contract the journal shares with the cache.

The ``exclusive=True`` owner lock (PR 10's journal hardening) is what
makes per-session files safe under the server's concurrency model:
one live server owns a session's journal; a second server pointed at
the same state directory fails fast on that session instead of
interleaving appends, while a lock left by a SIGKILLed server is
detected as stale (dead pid) and broken on restart — the resume path.
"""

from __future__ import annotations

import os
import re
import threading
from typing import Dict, Optional

from ..exec.checkpoint import CheckpointJournal

__all__ = ["SessionStore", "valid_session_name", "DEFAULT_SESSION"]

#: Session used when a submit frame names none.
DEFAULT_SESSION = "default"

#: Session names are path components: one conservative token, no
#: separators, no dotfiles — a hostile name must never escape the
#: sessions directory or collide with journal sidecar suffixes.
_SESSION_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


def valid_session_name(name: str) -> bool:
    """Whether ``name`` is an acceptable session label."""
    return isinstance(name, str) and bool(_SESSION_NAME.match(name))


class SessionStore:
    """Lazily-opened, exclusively-owned per-session journals.

    Thread-safe: the server opens sessions and appends records on its
    dedicated journal-I/O thread (blocking flock/fsync must not stall
    the event loop), while stats queries read from the loop thread; a
    plain lock guards the open-once map.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        self._journals: Dict[str, CheckpointJournal] = {}
        self._lock = threading.Lock()

    def journal_path(self, session: str) -> str:
        return os.path.join(self.root, f"{session}.jsonl")

    def journal_for(self, session: str) -> CheckpointJournal:
        """The session's journal, opened (and owner-locked) on first use.

        Raises :class:`~repro.errors.ConfigError` when another live
        process owns the session — surfaced to the client as a
        structured rejection, never a crash.
        """
        with self._lock:
            journal = self._journals.get(session)
            if journal is None:
                journal = CheckpointJournal(
                    self.journal_path(session), exclusive=True
                )
                self._journals[session] = journal
            return journal

    def open_count(self) -> int:
        with self._lock:
            return len(self._journals)

    def close(self, session: Optional[str] = None) -> None:
        """Release owner locks — one session, or all of them."""
        with self._lock:
            if session is not None:
                journal = self._journals.pop(session, None)
                if journal is not None:
                    journal.close()
                return
            for journal in self._journals.values():
                journal.close()
            self._journals.clear()
