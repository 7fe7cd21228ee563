"""Trace file I/O.

Traces persist in three formats, all openable through one front door:

* ``.npz`` archives (ops, pages, metadata) — the original materialized
  format (:func:`save_trace` / :func:`load_trace`);
* chunked ``.twt`` files — the streaming-first format replayable at
  constant memory (:mod:`repro.traces.chunked`);
* text formats — the repo's ``W 0x...`` lines
  (:mod:`repro.traces.text_format`) and MSR-Cambridge-style block-trace
  CSV (:mod:`repro.traces.blocktrace`).

:func:`open_trace_stream` sniffs the format and returns a
:class:`~repro.traces.stream.TraceStream`; :func:`trace_digest` hashes
a file's contents for cache fingerprints.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
import zlib

import numpy as np

from ..errors import TraceError
from .stream import DEFAULT_CHUNK_REQUESTS, TraceStream
from .trace import Trace

_FORMAT_VERSION = 1

#: Zip archive magic (``.npz`` files are zip archives).
_ZIP_MAGIC = b"PK\x03\x04"


def save_trace(trace: Trace, path: str) -> None:  # twl: allow(TWL011) reason=writer of the .npz format that --trace reads
    """Write ``trace`` to ``path`` (npz format)."""
    metadata = {
        "version": _FORMAT_VERSION,
        "name": trace.name,
        "write_bandwidth_mbps": trace.write_bandwidth_mbps,
    }
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    np.savez_compressed(
        path,
        ops=trace.ops,
        pages=trace.pages,
        metadata=np.frombuffer(json.dumps(metadata).encode(), dtype=np.uint8),
    )


def load_trace(path: str) -> Trace:
    """Load a trace previously written by :func:`save_trace`.

    Every way the file can be bad — missing, not an npz archive,
    truncated mid-member, missing members, undecodable or non-object
    metadata, wrong format version, or record arrays that fail
    :class:`Trace` validation — raises :class:`~repro.errors.TraceError`
    naming the file and the offending record, never a bare
    ``zipfile``/``zlib``/``numpy`` exception.
    """
    if not os.path.exists(path):
        raise TraceError(f"trace file not found: {path}")
    try:
        archive = np.load(path)
    except (zipfile.BadZipFile, ValueError, OSError) as error:
        raise TraceError(
            f"unreadable trace file {path}: not a valid npz archive ({error})"
        ) from None
    with archive:
        members = {}
        for member in ("ops", "pages", "metadata"):
            if member not in archive.files:
                raise TraceError(
                    f"malformed trace file {path}: missing record {member!r}"
                )
            try:
                members[member] = archive[member]
            except (zipfile.BadZipFile, zlib.error, ValueError, OSError, EOFError) as error:
                raise TraceError(
                    f"truncated trace file {path}: record {member!r} "
                    f"is unreadable ({error})"
                ) from None
        try:
            metadata = json.loads(members["metadata"].tobytes().decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise TraceError(f"malformed trace metadata in {path}: {error}") from None
    if not isinstance(metadata, dict):
        raise TraceError(
            f"malformed trace metadata in {path}: expected a JSON object, "
            f"got {type(metadata).__name__}"
        )
    version = metadata.get("version")
    if version != _FORMAT_VERSION:
        raise TraceError(
            f"unsupported trace format version {version!r} in {path}"
        )
    try:
        return Trace(
            members["ops"],
            members["pages"],
            name=metadata.get("name", "trace"),
            write_bandwidth_mbps=metadata.get("write_bandwidth_mbps"),
        )
    except (TraceError, ValueError, TypeError) as error:
        raise TraceError(f"invalid trace records in {path}: {error}") from None


def _sniff_format(path: str) -> str:
    """Classify a trace file by magic bytes, falling back to extension."""
    from .chunked import CHUNKED_MAGIC

    if not os.path.exists(path):
        raise TraceError(f"trace file not found: {path}")
    with open(path, "rb") as handle:
        magic = handle.read(8)
    if magic[: len(CHUNKED_MAGIC)] == CHUNKED_MAGIC:
        return "chunked"
    if magic[: len(_ZIP_MAGIC)] == _ZIP_MAGIC:
        return "npz"
    if os.path.splitext(path)[1].lower() == ".csv":
        return "csv"
    return "text"


def trace_digest(path: str) -> str:
    """Hex digest of the trace file's contents.

    A ``.twt`` file hashes its header plus every chunk record's size and
    CRC (:meth:`~repro.traces.chunked.ChunkedFileStream.content_digest`),
    seeking over every payload; any other format hashes the file bytes.
    Raises :class:`~repro.errors.TraceError` naming ``path`` when the
    file is missing or unreadable.
    """
    try:
        if _sniff_format(path) == "chunked":
            from .chunked import ChunkedFileStream

            with ChunkedFileStream(path) as stream:
                return stream.content_digest()
        digest = hashlib.blake2b(digest_size=16)
        with open(path, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                digest.update(block)
        return digest.hexdigest()
    except OSError as error:
        raise TraceError(f"unreadable trace file {path}: {error}") from None


def open_trace_stream(
    path: str, chunk_size: int = DEFAULT_CHUNK_REQUESTS
) -> TraceStream:
    """Open any supported trace file as a :class:`TraceStream`.

    Chunked ``.twt`` files and text formats stream at constant memory;
    ``.npz`` archives are inherently monolithic, so they load once and
    stream through the :class:`~repro.traces.stream.MaterializedStream`
    adapter (``chunk_size`` sets the delivery granularity — for ``.twt``
    files the on-disk chunking already fixes it).
    """
    kind = _sniff_format(path)
    if kind == "chunked":
        from .chunked import ChunkedFileStream

        return ChunkedFileStream(path)
    if kind == "npz":
        return load_trace(path).stream(chunk_size)
    if kind == "csv":
        from .blocktrace import BlockTraceStream

        return BlockTraceStream(path, chunk_size=chunk_size)
    from .text_format import TextTraceStream

    return TextTraceStream(path, chunk_size=chunk_size)
