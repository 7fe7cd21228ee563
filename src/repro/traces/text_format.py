"""Plain-text trace import/export.

For interoperability with externally collected traces (gem5/NVMain
post-processing scripts typically emit one request per line), traces can
be exchanged in a simple text format::

    # comment lines start with '#'
    W 0x1a2b      <- write to byte address 0x1a2b (mapped to its page)
    R 4096        <- read, decimal addresses accepted
    W 8192 extra-fields-are-ignored

Addresses are byte addresses; the loader shifts them to page granularity
(the paper's wear model).  The writer emits page addresses back as byte
addresses of the page base.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

import numpy as np

from ..config import PAPER_PAGE_BYTES
from ..errors import TraceError
from .request import OP_READ, OP_WRITE
from .stream import DEFAULT_CHUNK_REQUESTS, Chunk, TraceStream
from .trace import Trace

_OPS = {"R": OP_READ, "W": OP_WRITE}
_OP_LETTERS = {OP_READ: "R", OP_WRITE: "W"}


def _page_shift(page_bytes: int) -> int:
    """Validated power-of-two page size -> address shift."""
    if page_bytes < 1:
        raise TraceError("page size must be positive")
    shift = page_bytes.bit_length() - 1
    if (1 << shift) != page_bytes:
        raise TraceError(f"page size must be a power of two, got {page_bytes}")
    return shift


def _parse_line(
    path: str, line_number: int, raw: str, shift: int
) -> Optional[Tuple[int, int]]:
    """One text-trace line -> ``(op, page)``, or ``None`` for comments."""
    line = raw.strip()
    if not line or line.startswith("#"):
        return None
    fields = line.split()
    if len(fields) < 2:
        raise TraceError(
            f"{path}:{line_number}: expected 'OP ADDRESS', got {line!r}"
        )
    op_letter = fields[0].upper()
    if op_letter not in _OPS:
        raise TraceError(
            f"{path}:{line_number}: unknown op {fields[0]!r} (use R/W)"
        )
    try:
        address = int(fields[1], 0)
    except ValueError:
        raise TraceError(
            f"{path}:{line_number}: bad address {fields[1]!r}"
        ) from None
    if address < 0:
        raise TraceError(f"{path}:{line_number}: negative address")
    return _OPS[op_letter], address >> shift


class TextTraceStream(TraceStream):
    """Constant-memory chunked reader for the text trace format.

    Parses at most ``chunk_size`` requests per :meth:`next_chunk`, so a
    multi-gigabyte text trace streams without ever being held whole;
    :meth:`rewind` seeks back to the top for trace looping.  Per-line
    diagnostics (``path:line: ...``) are identical to
    :func:`load_text_trace`, which is now a thin
    :meth:`~repro.traces.stream.TraceStream.materialize` over this
    reader.
    """

    def __init__(
        self,
        path: str,
        page_bytes: int = PAPER_PAGE_BYTES,
        chunk_size: int = DEFAULT_CHUNK_REQUESTS,
        name: Optional[str] = None,
        write_bandwidth_mbps: Optional[float] = None,
    ):
        self._shift = _page_shift(page_bytes)
        if chunk_size < 1:
            raise TraceError(f"chunk size must be positive, got {chunk_size}")
        if not os.path.exists(path):
            raise TraceError(f"trace file not found: {path}")
        self.path = path
        self.chunk_size = chunk_size
        self.name = name or os.path.splitext(os.path.basename(path))[0]
        self.write_bandwidth_mbps = write_bandwidth_mbps
        self._handle = open(path)
        self._line_number = 0

    def rewind(self) -> None:
        if self._handle is None:
            raise TraceError(f"stream for {self.path} is closed")
        self._handle.seek(0)
        self._line_number = 0

    def next_chunk(self) -> Optional[Chunk]:
        if self._handle is None:
            raise TraceError(f"stream for {self.path} is closed")
        ops = []
        pages = []
        path, shift = self.path, self._shift
        for raw in self._handle:
            self._line_number += 1
            parsed = _parse_line(path, self._line_number, raw, shift)
            if parsed is None:
                continue
            ops.append(parsed[0])
            pages.append(parsed[1])
            if len(ops) == self.chunk_size:
                break
        if not ops:
            return None
        return np.array(ops, dtype=np.uint8), np.array(pages, dtype=np.int64)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def load_text_trace(
    path: str,
    page_bytes: int = PAPER_PAGE_BYTES,
    name: Optional[str] = None,
    write_bandwidth_mbps: Optional[float] = None,
) -> Trace:
    """Parse a text trace file into a :class:`Trace` (materialized)."""
    with TextTraceStream(
        path,
        page_bytes=page_bytes,
        name=name,
        write_bandwidth_mbps=write_bandwidth_mbps,
    ) as stream:
        try:
            return stream.materialize()
        except TraceError as error:
            if "contains no requests" in str(error):
                raise TraceError(f"{path}: no requests found") from None
            raise


def save_text_trace(  # twl: allow(TWL011) reason=writer of the text format that --trace reads
    trace: Trace,
    path: str,
    page_bytes: int = PAPER_PAGE_BYTES,
) -> None:
    """Write ``trace`` in the text format (page-base byte addresses)."""
    if page_bytes < 1:
        raise TraceError("page size must be positive")
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        handle.write(f"# trace: {trace.name}\n")
        if trace.write_bandwidth_mbps is not None:
            handle.write(f"# write_bandwidth_mbps: {trace.write_bandwidth_mbps}\n")
        for op, page in zip(trace.ops.tolist(), trace.pages.tolist()):
            handle.write(f"{_OP_LETTERS[op]} 0x{page * page_bytes:x}\n")
