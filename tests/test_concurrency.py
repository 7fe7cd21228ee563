"""Concurrent writers against the cache and its owner lock.

The campaign server (:mod:`repro.serve`) multiplexes many sessions over
one process and one cache directory, so the durability layer has to
survive contention it never saw under single-campaign CLI use:

* N threads and N processes putting/getting the *same* cache
  fingerprint must never corrupt an entry or observe a partial file —
  the tmp+``os.replace`` protocol under contention, plus the
  ``.json.corrupt`` quarantine staying silent when nothing is corrupt;
* the :class:`~repro.exec.cache.OwnerLock` must keep two live owners
  out of one directory, break locks left by dead owners, and release
  on :meth:`~repro.exec.cache.OwnerLock.release`.
"""

import os
import subprocess
import sys
import threading
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.config import ScaledArrayConfig
from repro.errors import ConfigError
from repro.exec import (
    CellCache,
    attack_cell,
    cell_fingerprint,
    decode_result,
    encode_result,
    run_cells,
)
from repro.exec.cache import OwnerLock
from repro.serve.session import SessionStore

SCALED = ScaledArrayConfig(n_pages=64, endurance_mean=768.0)


def _cell(seed: int = 11):
    return attack_cell("nowl", "scan", scaled=SCALED, seed=seed)


@pytest.fixture(scope="module")
def payload():
    """One real result, encoded so it crosses the spawn boundary."""
    result = run_cells([_cell()], jobs=1)[0]
    kind, record = encode_result(result)
    return kind, record


def _cache_contend(directory: str, kind: str, record: dict, rounds: int) -> int:
    """Worker body: hammer one fingerprint; returns corrupt count."""
    cache = CellCache(directory)
    cell = _cell()
    result = decode_result(kind, record)
    for _ in range(rounds):
        cache.put(cell, cell_fingerprint(cell), result)
        got = cache.get(cell_fingerprint(cell))
        # A reader can never see a partial file: os.replace is atomic,
        # so every get() decodes a complete entry (identical bytes here,
        # since every writer writes the same result).
        assert got == result
    return cache.corrupt


class TestCacheContention:
    """Satellite: concurrent CellCache writers on one fingerprint."""

    def test_threads_same_fingerprint(self, tmp_path, payload):
        kind, record = payload
        directory = str(tmp_path / "cache")
        corrupt = []
        errors = []

        def work():
            try:
                corrupt.append(_cache_contend(directory, kind, record, rounds=50))
            except BaseException as error:  # noqa: B036 - recorded for assert
                errors.append(error)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        assert sum(corrupt) == 0
        # Exactly one entry, decodable, and no orphaned temp files.
        cache = CellCache(directory)
        assert len(cache) == 1
        assert cache.get(cell_fingerprint(_cell())) == decode_result(kind, record)
        leftovers = [n for n in os.listdir(directory) if n.endswith(".tmp")]
        assert leftovers == []

    def test_processes_same_fingerprint(self, tmp_path, payload):
        kind, record = payload
        directory = str(tmp_path / "cache")
        with ProcessPoolExecutor(max_workers=4) as pool:
            corrupt = list(
                pool.map(
                    _cache_contend,
                    [directory] * 4,
                    [kind] * 4,
                    [record] * 4,
                    [20] * 4,
                )
            )
        assert sum(corrupt) == 0
        cache = CellCache(directory)
        assert len(cache) == 1
        assert cache.get(cell_fingerprint(_cell())) == decode_result(kind, record)
        assert cache.corrupt == 0

    def test_quarantine_still_works_under_contention(self, tmp_path, payload):
        """A genuinely corrupt entry is quarantined exactly as before —
        contention hardening must not mask real corruption."""
        kind, record = payload
        cache = CellCache(str(tmp_path))
        cell = _cell()
        result = decode_result(kind, record)
        cache.put(cell, cell_fingerprint(cell), result)
        path = cache.path_for(cell_fingerprint(cell))
        with open(path, "wb") as handle:
            handle.write(b"\x00not json\x00")
        assert cache.get(cell_fingerprint(cell)) is None
        assert cache.corrupt == 1
        assert os.path.exists(f"{path}.corrupt")
        cache.put(cell, cell_fingerprint(cell), result)
        assert cache.get(cell_fingerprint(cell)) == result


class TestExclusiveOwnerLock:
    """Satellite: the owner lock keeps two live owners out of one
    directory (the campaign server takes one per session)."""

    def test_second_exclusive_open_fails_while_owned(self, tmp_path):
        directory = str(tmp_path)
        with OwnerLock(directory):
            with pytest.raises(ConfigError, match="exclusively owned"):
                OwnerLock(directory)
        # Leaving the context released the lock.
        OwnerLock(directory).release()

    def test_non_exclusive_open_is_unaffected(self, tmp_path, payload):
        kind, record = payload
        directory = str(tmp_path)
        with OwnerLock(directory):
            # The lock excludes owners only: the directory's entries
            # stay readable and writable through a plain CellCache.
            cache = CellCache(directory)
            cell = _cell()
            cache.put(cell, cell_fingerprint(cell), decode_result(kind, record))
            assert CellCache(directory).get(cell_fingerprint(cell)) is not None
            assert len(cache) == 1

    def test_stale_lock_from_dead_owner_is_broken(self, tmp_path):
        lock_path = str(tmp_path / "owner.lock")
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        with open(lock_path, "w") as handle:
            handle.write(f"{proc.pid}\n")
        lock = OwnerLock(str(tmp_path))
        with open(lock_path) as handle:
            assert int(handle.read().strip()) == os.getpid()
        lock.release()
        assert not os.path.exists(lock_path)

    def test_garbage_owner_file_is_broken(self, tmp_path):
        lock_path = str(tmp_path / "owner.lock")
        with open(lock_path, "w") as handle:
            handle.write("not-a-pid\n")
        lock = OwnerLock(str(tmp_path))
        with open(lock_path) as handle:
            assert int(handle.read().strip()) == os.getpid()
        lock.release()

    def test_close_is_idempotent(self, tmp_path):
        lock = OwnerLock(str(tmp_path))
        lock.release()
        lock.release()
        OwnerLock(str(tmp_path)).release()
        # A session store closes the same way, and reopens its sessions.
        store = SessionStore(str(tmp_path / "sessions"))
        store.cache_for("alice")
        store.close()
        store.close()
        store.cache_for("alice")
        store.close()

    def test_live_owner_lock_always_carries_its_pid(self, tmp_path):
        """The lock file is linked into place *with* its pid.

        An O_EXCL-create-then-write protocol has a window where a live
        owner's lock exists but is still empty — a contender reading it
        then judges it garbage and breaks it, leaving two owners of one
        directory.  The link protocol makes that state unrepresentable:
        the moment the path exists it names its owner, and no stray
        temp files are left behind.
        """
        with OwnerLock(str(tmp_path)):
            with open(str(tmp_path / "owner.lock")) as handle:
                assert int(handle.read().strip()) == os.getpid()
            leftovers = [
                name for name in os.listdir(tmp_path)
                if name.endswith(".tmp")
            ]
            assert leftovers == []

    def test_contended_acquisition_yields_exactly_one_owner(self, tmp_path):
        winners, losers, errors = [], [], []
        barrier = threading.Barrier(8)

        def contend():
            barrier.wait()
            try:
                lock = OwnerLock(str(tmp_path))
            except ConfigError:
                losers.append(1)
            except Exception as error:  # noqa: BLE001 - must be visible
                errors.append(error)
            else:
                winners.append(lock)

        threads = [threading.Thread(target=contend) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(winners) == 1
        assert len(losers) == 7
        winners[0].release()
        assert not os.path.exists(str(tmp_path / "owner.lock"))
