"""Versioned, CRC-guarded mid-run snapshot format.

A snapshot captures the complete mutable state of an engine run — PCM
wear arrays, every table and RNG register of the scheme, the driver and
stream position, the soft-error schedule, and the engine's own counters
— as a *state tree*: nested dicts/lists of Python scalars and numpy
arrays.  The container on disk is::

    magic "TWLSNAP1" | version u32 | header_len u32 | payload_len u64
    | crc32 u32 | header JSON | payload

where the header holds the JSON-able skeleton of the tree (numpy arrays
replaced by indexed placeholders plus a dtype/shape table) and the
payload is the concatenated, zlib-compressed array bytes.  The CRC
covers header and payload, so truncation or corruption anywhere raises
:class:`repro.errors.SnapshotError` instead of silently resuming from
garbage.

Writes are crash-consistent: :func:`atomic_write` (which the result
cache shares) writes the container to a ``<path>.<pid>.….tmp`` sibling,
fsyncs it, then atomically renames it over the target, so a reader only
ever sees a complete snapshot or none at all — a ``SIGKILL`` mid-write
leaves the previous snapshot intact.

Derivable state (endurance tables, Feistel word tables, hash families,
FTL layout permutations) is deliberately **not** serialized: restore
rebuilds it from the run's configuration, keeping snapshots small and
the format honest about what is state and what is derivation.

Snapshot cadence is an **execution knob**: which snapshots exist can
never change a run's results, so ``snapshot_every`` is excluded from
cache fingerprints exactly like ``batch_size`` (rule TWL003).
"""

from __future__ import annotations

import itertools
import json
import os
import struct
import threading
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from ..errors import SnapshotError

SNAPSHOT_MAGIC = b"TWLSNAP1"
SNAPSHOT_FORMAT_VERSION = 2

#: Fixed-size fields after the magic: format version, header length,
#: compressed payload length, CRC32 of header+payload.
_FIXED = struct.Struct("<IIQI")

#: Placeholder key marking a serialized numpy array in the skeleton.
_ARRAY_KEY = "__twl_nd__"


# ---------------------------------------------------------------------
# State-tree codec
# ---------------------------------------------------------------------
def _pack(node: Any, arrays: List[np.ndarray]) -> Any:
    """Replace numpy arrays with indexed placeholders, JSON-ify the rest."""
    if isinstance(node, np.ndarray):
        arrays.append(np.ascontiguousarray(node))
        return {_ARRAY_KEY: len(arrays) - 1}
    if isinstance(node, dict):
        packed = {}
        for key, value in node.items():
            if not isinstance(key, str):
                raise SnapshotError(
                    f"state-tree keys must be strings, got {key!r}"
                )
            if key == _ARRAY_KEY:
                raise SnapshotError(f"reserved key {key!r} in state tree")
            packed[key] = _pack(value, arrays)
        return packed
    if isinstance(node, (list, tuple)):
        return [_pack(item, arrays) for item in node]
    if isinstance(node, np.integer):
        return int(node)
    if isinstance(node, np.floating):
        return float(node)
    if node is None or isinstance(node, (bool, int, float, str)):
        return node
    raise SnapshotError(
        f"cannot serialize {type(node).__name__!r} in a snapshot state tree"
    )


def _unpack(node: Any, arrays: List[np.ndarray]) -> Any:
    """Invert :func:`_pack`, resolving array placeholders."""
    if isinstance(node, dict):
        if set(node) == {_ARRAY_KEY}:
            index = node[_ARRAY_KEY]
            if not 0 <= index < len(arrays):
                raise SnapshotError(f"array placeholder {index} out of range")
            return arrays[index]
        return {key: _unpack(value, arrays) for key, value in node.items()}
    if isinstance(node, list):
        return [_unpack(item, arrays) for item in node]
    return node


# ---------------------------------------------------------------------
# Container I/O
# ---------------------------------------------------------------------
#: Process-wide counter making concurrent same-process temp names
#: unique.  The pid alone is not enough: the campaign server writes
#: cache entries from many threads of one process, and two threads
#: writing the same path with a pid-only temp name would interleave
#: writes into one file and rename garbage into place.
_temp_counter = itertools.count()
_temp_lock = threading.Lock()


def atomic_write(path: str, *chunks: bytes) -> None:
    """Durably replace ``path`` with the concatenated ``chunks``.

    The bytes go to a unique ``<path>.<pid>.<thread>.<n>.tmp`` sibling,
    are fsynced, and the sibling is renamed over ``path``: a reader
    sees the old file or the complete new one, and after a crash the
    new one is on disk once this returns.  On any failure the temp
    file is removed.
    """
    with _temp_lock:
        serial = next(_temp_counter)
    temp_path = f"{path}.{os.getpid()}.{threading.get_ident()}.{serial}.tmp"
    try:
        with open(temp_path, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


def write_snapshot(path: str, state: Dict[str, Any]) -> None:
    """Atomically write ``state`` as a snapshot at ``path``.

    The write goes through :func:`atomic_write`, so a crash mid-write
    can never leave a partial container under the target name.
    """
    arrays: List[np.ndarray] = []
    skeleton = _pack(state, arrays)
    header = {
        "arrays": [
            {"dtype": array.dtype.str, "shape": list(array.shape)}
            for array in arrays
        ],
        "state": skeleton,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = zlib.compress(
        b"".join(array.tobytes() for array in arrays), level=1
    )
    crc = zlib.crc32(header_bytes + payload) & 0xFFFFFFFF
    atomic_write(
        path,
        SNAPSHOT_MAGIC,
        _FIXED.pack(SNAPSHOT_FORMAT_VERSION, len(header_bytes), len(payload), crc),
        header_bytes,
        payload,
    )


def read_snapshot(path: str) -> Dict[str, Any]:
    """Read and validate a snapshot; returns its state tree.

    Raises :class:`SnapshotError` on a bad magic, unknown version,
    truncation, CRC mismatch or malformed header — never returns a
    partially decoded state.
    """
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as error:
        raise SnapshotError(f"cannot read snapshot {path!r}: {error}") from error
    prefix = len(SNAPSHOT_MAGIC) + _FIXED.size
    if len(blob) < prefix or not blob.startswith(SNAPSHOT_MAGIC):
        raise SnapshotError(f"{path!r} is not a TWL snapshot (bad magic)")
    version, header_len, payload_len, crc = _FIXED.unpack(
        blob[len(SNAPSHOT_MAGIC) : prefix]
    )
    if version != SNAPSHOT_FORMAT_VERSION:
        raise SnapshotError(
            f"{path!r} has snapshot format version {version}; "
            f"this build reads version {SNAPSHOT_FORMAT_VERSION}"
        )
    if len(blob) != prefix + header_len + payload_len:
        raise SnapshotError(
            f"{path!r} is truncated: expected "
            f"{prefix + header_len + payload_len} bytes, got {len(blob)}"
        )
    header_bytes = blob[prefix : prefix + header_len]
    payload = blob[prefix + header_len :]
    if zlib.crc32(header_bytes + payload) & 0xFFFFFFFF != crc:
        raise SnapshotError(f"{path!r} failed its CRC check")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
        specs = header["arrays"]
        raw = zlib.decompress(payload)
        arrays: List[np.ndarray] = []
        offset = 0
        for spec in specs:
            dtype = np.dtype(spec["dtype"])
            shape = tuple(spec["shape"])
            nbytes = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
            chunk = raw[offset : offset + nbytes]
            if len(chunk) != nbytes:
                raise SnapshotError(f"{path!r} array table overruns payload")
            arrays.append(
                np.frombuffer(chunk, dtype=dtype).reshape(shape).copy()
            )
            offset += nbytes
        state = _unpack(header["state"], arrays)
    except SnapshotError:
        raise
    except (KeyError, TypeError, ValueError, zlib.error) as error:
        raise SnapshotError(f"{path!r} is malformed: {error}") from error
    return state


def discard_snapshot(path: str) -> None:
    """Remove a snapshot and any temp-file leftovers of partial writes.

    Used after a cell completes (its snapshot is spent) and by the
    executor's timeout path, so interrupted runs never leak ``.snap`` /
    ``.tmp`` files into the cache directory.  Missing files are fine.
    """
    try:
        os.unlink(path)
    except OSError:
        pass
    directory, name = os.path.split(path)
    try:
        entries = os.listdir(directory or ".")
    except OSError:
        return
    for entry in sorted(entries):
        if entry.startswith(name + ".") and entry.endswith(".tmp"):
            try:
                os.unlink(os.path.join(directory, entry))
            except OSError:
                pass


# ---------------------------------------------------------------------
# Cadence plan
# ---------------------------------------------------------------------
@dataclass(frozen=True)
class SnapshotPlan:
    """Where and how often an engine run persists its state.

    ``every`` is a demand-write cadence: the engine clamps its step
    quota so emission lands on exact multiples, making snapshot instants
    a pure function of the cadence.  It is an execution knob — results
    are bit-identical with or without it.

    ``resume=True`` makes the run restore from an existing snapshot at
    ``path`` before serving any demand; a corrupt snapshot is discarded
    and the run starts from scratch.
    """

    path: str
    every: Optional[int] = None
    resume: bool = True

    def __post_init__(self) -> None:
        if not self.path:
            raise SnapshotError("snapshot plan needs a non-empty path")
        if self.every is not None and self.every < 1:
            raise SnapshotError(
                f"snapshot cadence must be >= 1 demand, got {self.every}"
            )


__all__ = [
    "SNAPSHOT_FORMAT_VERSION",
    "SNAPSHOT_MAGIC",
    "SnapshotPlan",
    "atomic_write",
    "discard_snapshot",
    "read_snapshot",
    "write_snapshot",
]
