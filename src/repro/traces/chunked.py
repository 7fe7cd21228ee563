"""Chunked, compressed on-disk trace format (``.twt``).

The ``.npz`` format (:mod:`repro.traces.io`) stores a trace as two
monolithic arrays — loading it materializes everything, which caps
campaigns at RAM.  The ``.twt`` format stores the same request sequence
as a sequence of independently compressed chunks, so
:class:`ChunkedFileStream` can replay arbitrarily long traces at
constant memory, and a collector can append chunks to a live file
without rewriting it.

Layout (all integers little-endian)::

    magic      8 bytes   b"TWLTRC01"
    hdr_len    uint32    length of the JSON header
    header     hdr_len   UTF-8 JSON: {"version": 1, "name": ...,
                         "write_bandwidth_mbps": ...}
    chunk*               repeated chunk records:
      n_requests  uint64   requests in this chunk
      payload_len uint32   compressed payload bytes
      crc32       uint32   CRC-32 of the compressed payload
      payload     bytes    zlib(ops uint8[n] || pages int64-LE[n])

Every way a file can be bad — wrong magic, malformed header, a chunk
header or payload cut short by a crashed writer, CRC mismatch,
undecompressable payload, or records failing validation — raises a
structured :class:`~repro.errors.TraceError` naming the file and the
chunk index, never a bare ``struct``/``zlib``/``json`` exception.  A
truncated *final* chunk is therefore diagnosable (and recoverable by
re-appending) rather than a silent short read.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import zlib
from typing import BinaryIO, Optional, Tuple

import numpy as np

from ..errors import TraceError
from .request import OP_READ, OP_WRITE
from .stream import DEFAULT_CHUNK_REQUESTS, Chunk, TraceStream
from .trace import Trace

#: File magic; the trailing "01" is the major layout revision.
CHUNKED_MAGIC = b"TWLTRC01"

#: Header JSON ``version`` field accepted by this reader.
CHUNKED_FORMAT_VERSION = 1

_CHUNK_HEADER = struct.Struct("<QII")

#: Refuse to allocate for absurd chunk records (corrupt headers decode
#: as huge lengths; 1 GiB of compressed payload is never legitimate).
_MAX_PAYLOAD_BYTES = 1 << 30
_MAX_CHUNK_REQUESTS = 1 << 28


def _read_header(handle: BinaryIO, path: str) -> Tuple[dict, int]:
    """Validate magic + JSON header; return (header, data offset)."""
    magic = handle.read(len(CHUNKED_MAGIC))
    if magic != CHUNKED_MAGIC:
        raise TraceError(
            f"unreadable chunked trace {path}: bad magic "
            f"{magic[:8]!r} (expected {CHUNKED_MAGIC!r})"
        )
    raw_len = handle.read(4)
    if len(raw_len) != 4:
        raise TraceError(f"truncated chunked trace {path}: header length cut short")
    (header_len,) = struct.unpack("<I", raw_len)
    if header_len > _MAX_PAYLOAD_BYTES:
        raise TraceError(f"malformed chunked trace {path}: header length {header_len}")
    raw_header = handle.read(header_len)
    if len(raw_header) != header_len:
        raise TraceError(f"truncated chunked trace {path}: header cut short")
    try:
        header = json.loads(raw_header.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise TraceError(f"malformed chunked trace header in {path}: {error}") from None
    if not isinstance(header, dict):
        raise TraceError(
            f"malformed chunked trace header in {path}: expected a JSON "
            f"object, got {type(header).__name__}"
        )
    version = header.get("version")
    if version != CHUNKED_FORMAT_VERSION:
        raise TraceError(f"unsupported chunked trace version {version!r} in {path}")
    return header, len(CHUNKED_MAGIC) + 4 + header_len


class ChunkedTraceWriter:
    """Incremental ``.twt`` writer (append-friendly).

    ``append=True`` reopens an existing file and adds chunks after the
    ones already present — the header (name, bandwidth, version) is
    taken from the file and must not be re-specified.
    """

    def __init__(
        self,
        path: str,
        name: Optional[str] = None,
        write_bandwidth_mbps: Optional[float] = None,
        append: bool = False,
    ):
        self.path = path
        self._closed = False
        if append:
            if name is not None or write_bandwidth_mbps is not None:
                raise TraceError(
                    "append mode takes the name/bandwidth from the existing "
                    "file header; do not re-specify them"
                )
            if not os.path.exists(path):
                raise TraceError(f"trace file not found: {path}")
            with open(path, "rb") as handle:
                header, _ = _read_header(handle, path)
            self.name = header.get("name", "trace")
            self.write_bandwidth_mbps = header.get("write_bandwidth_mbps")
            self._handle = open(path, "ab")
            return
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self.name = name or os.path.splitext(os.path.basename(path))[0]
        self.write_bandwidth_mbps = write_bandwidth_mbps
        header_bytes = json.dumps(
            {
                "version": CHUNKED_FORMAT_VERSION,
                "name": self.name,
                "write_bandwidth_mbps": self.write_bandwidth_mbps,
            }
        ).encode()
        self._handle = open(path, "wb")
        self._handle.write(CHUNKED_MAGIC)
        self._handle.write(struct.pack("<I", len(header_bytes)))
        self._handle.write(header_bytes)

    def write_chunk(self, ops: np.ndarray, pages: np.ndarray) -> None:
        """Append one validated ``(ops, pages)`` chunk."""
        if self._closed:
            raise TraceError(f"writer for {self.path} is closed")
        ops_array = np.ascontiguousarray(ops, dtype=np.uint8)
        pages_array = np.ascontiguousarray(pages, dtype="<i8")
        if ops_array.ndim != 1 or pages_array.ndim != 1:
            raise TraceError("chunk ops and pages must be 1-D")
        if ops_array.shape != pages_array.shape:
            raise TraceError(
                f"chunk ops/pages length mismatch: "
                f"{ops_array.shape} vs {pages_array.shape}"
            )
        if ops_array.size == 0:
            raise TraceError("chunk must contain at least one request")
        if (~np.isin(ops_array, (OP_READ, OP_WRITE))).any():
            raise TraceError("chunk contains invalid op codes")
        if (pages_array < 0).any():
            raise TraceError("chunk contains negative page addresses")
        payload = zlib.compress(ops_array.tobytes() + pages_array.tobytes())
        self._handle.write(
            _CHUNK_HEADER.pack(ops_array.size, len(payload), zlib.crc32(payload))
        )
        self._handle.write(payload)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._handle.close()

    def __enter__(self) -> "ChunkedTraceWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def save_chunked_trace(
    trace: Trace, path: str, chunk_size: int = DEFAULT_CHUNK_REQUESTS
) -> None:
    """Write ``trace`` as a ``.twt`` file in ``chunk_size`` pieces."""
    if chunk_size < 1:
        raise TraceError(f"chunk size must be positive, got {chunk_size}")
    with ChunkedTraceWriter(
        path, name=trace.name, write_bandwidth_mbps=trace.write_bandwidth_mbps
    ) as writer:
        for start in range(0, trace.n_requests, chunk_size):
            stop = start + chunk_size
            writer.write_chunk(trace.ops[start:stop], trace.pages[start:stop])


class ChunkedFileStream(TraceStream):
    """Constant-memory replay of a ``.twt`` file.

    Chunks come back exactly as written (the file's chunking *is* the
    delivery granularity); :meth:`rewind` seeks back to the first chunk,
    so drivers can loop the trace to failure without ever holding more
    than one decompressed chunk.
    """

    def __init__(self, path: str):
        if not os.path.exists(path):
            raise TraceError(f"trace file not found: {path}")
        self.path = path
        self._handle: Optional[BinaryIO] = open(path, "rb")
        header, self._data_start = _read_header(self._handle, path)
        self.name = header.get("name", "trace")
        bandwidth = header.get("write_bandwidth_mbps")
        self.write_bandwidth_mbps = None if bandwidth is None else float(bandwidth)
        self._chunk_index = 0
        self._n_requests: Optional[int] = None

    @property
    def n_requests(self) -> Optional[int]:
        """Total requests, counted from chunk headers (payloads skipped)."""
        if self._n_requests is None:
            self._n_requests = sum(
                count for count, _, _, _ in self._scan_chunk_headers()
            )
        return self._n_requests

    def content_digest(self) -> str:
        """Digest of the file header and every chunk record's request
        count, payload length and CRC — payloads are never read, so the
        cost is independent of the trace length in requests."""
        handle = self._require_handle()
        position = handle.tell()
        try:
            handle.seek(0)
            digest = hashlib.blake2b(handle.read(self._data_start), digest_size=16)
        finally:
            handle.seek(position)
        for count, payload_len, crc, _ in self._scan_chunk_headers():
            digest.update(_CHUNK_HEADER.pack(count, payload_len, crc))
        return digest.hexdigest()

    def _scan_chunk_headers(self):
        """Yield ``(n_requests, payload_len, crc, offset)`` per chunk record.

        Seeks over payloads, so the scan cost is independent of the
        trace length in requests; raises the same structured errors the
        reader would.
        """
        handle = self._require_handle()
        position = handle.tell()
        file_size = os.fstat(handle.fileno()).st_size
        try:
            handle.seek(self._data_start)
            index = 0
            while True:
                raw = handle.read(_CHUNK_HEADER.size)
                if not raw:
                    return
                count, payload_len, crc = self._parse_chunk_header(raw, index)
                offset = handle.tell()
                if offset + payload_len > file_size:
                    raise TraceError(
                        f"truncated chunked trace {self.path}: chunk {index} "
                        f"payload cut short"
                    )
                handle.seek(payload_len, os.SEEK_CUR)
                yield count, payload_len, crc, offset
                index += 1
        finally:
            handle.seek(position)

    def _parse_chunk_header(self, raw: bytes, index: int) -> Tuple[int, int, int]:
        if len(raw) != _CHUNK_HEADER.size:
            raise TraceError(
                f"truncated chunked trace {self.path}: chunk {index} header "
                f"cut short ({len(raw)} of {_CHUNK_HEADER.size} bytes)"
            )
        count, payload_len, crc = _CHUNK_HEADER.unpack(raw)
        if count == 0 or count > _MAX_CHUNK_REQUESTS or payload_len > _MAX_PAYLOAD_BYTES:
            raise TraceError(
                f"malformed chunked trace {self.path}: chunk {index} header "
                f"declares {count} requests / {payload_len} payload bytes"
            )
        return count, payload_len, crc

    def _require_handle(self) -> BinaryIO:
        if self._handle is None:
            raise TraceError(f"stream for {self.path} is closed")
        return self._handle

    def rewind(self) -> None:
        self._require_handle().seek(self._data_start)
        self._chunk_index = 0

    def seek(self, chunk_index: int) -> None:
        """Seek over payloads: O(chunks), never decompresses anything."""
        if chunk_index < 0:
            raise TraceError(f"chunk index must be non-negative, got {chunk_index}")
        handle = self._require_handle()
        if chunk_index == 0:
            self.rewind()
            return
        # The scan generator restores the handle position on close, so
        # resolve the target offset first and seek afterwards.
        scan = self._scan_chunk_headers()
        target = None
        try:
            for index, (_, payload_len, _, offset) in enumerate(scan):
                if index + 1 == chunk_index:
                    target = offset + payload_len
                    break
        finally:
            scan.close()
        if target is None:
            raise TraceError(
                f"stream {self.name!r} exhausted while seeking to chunk "
                f"{chunk_index} in {self.path}"
            )
        handle.seek(target)
        self._chunk_index = chunk_index

    def next_chunk(self) -> Optional[Chunk]:
        handle = self._require_handle()
        index = self._chunk_index
        raw = handle.read(_CHUNK_HEADER.size)
        if not raw:
            return None
        count, payload_len, crc = self._parse_chunk_header(raw, index)
        payload = handle.read(payload_len)
        if len(payload) != payload_len:
            raise TraceError(
                f"truncated chunked trace {self.path}: chunk {index} payload "
                f"cut short ({len(payload)} of {payload_len} bytes)"
            )
        if zlib.crc32(payload) != crc:
            raise TraceError(
                f"corrupt chunked trace {self.path}: chunk {index} CRC mismatch"
            )
        try:
            data = zlib.decompress(payload)
        except zlib.error as error:
            raise TraceError(
                f"corrupt chunked trace {self.path}: chunk {index} does not "
                f"decompress ({error})"
            ) from None
        expected = count * 9  # uint8 op + int64 page per request
        if len(data) != expected:
            raise TraceError(
                f"corrupt chunked trace {self.path}: chunk {index} decodes to "
                f"{len(data)} bytes, expected {expected}"
            )
        ops = np.frombuffer(data, dtype=np.uint8, count=count)
        pages = np.frombuffer(data, dtype="<i8", count=count, offset=count).astype(
            np.int64, copy=False
        )
        if (~np.isin(ops, (OP_READ, OP_WRITE))).any():
            raise TraceError(
                f"corrupt chunked trace {self.path}: chunk {index} contains "
                f"invalid op codes"
            )
        if (pages < 0).any():
            raise TraceError(
                f"corrupt chunked trace {self.path}: chunk {index} contains "
                f"negative page addresses"
            )
        self._chunk_index = index + 1
        return ops, pages

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
