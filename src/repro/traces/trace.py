"""Trace container (the materialized adapter of the workload pipeline).

A :class:`Trace` is a finite request sequence plus the workload metadata
the lifetime and timing models need (write bandwidth, read/write mix).
Lifetime simulation loops the trace until a page wears out, exactly as
the paper does with its gem5-collected traces.

The canonical workload source in this repo is the *streaming* protocol
(:class:`~repro.traces.stream.TraceStream`, see ``docs/workloads.md``);
a ``Trace`` is its thin fully-materialized adapter, appropriate for
small synthetic workloads and tests where holding both arrays in RAM is
fine.  :meth:`Trace.stream` wraps a trace as a chunked stream;
``TraceStream.materialize`` gathers a (finite or capped) stream back
into a trace.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

import numpy as np

from ..errors import TraceError
from .request import MemoryRequest, OP_READ, OP_WRITE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .stream import MaterializedStream


class Trace:
    """A sequence of page-granular memory requests with metadata."""

    def __init__(
        self,
        ops: np.ndarray,
        pages: np.ndarray,
        name: str = "trace",
        write_bandwidth_mbps: Optional[float] = None,
    ):
        ops_array = np.asarray(ops, dtype=np.uint8)
        pages_array = np.asarray(pages, dtype=np.int64)
        if ops_array.ndim != 1 or pages_array.ndim != 1:
            raise TraceError("ops and pages must be 1-D")
        if ops_array.shape != pages_array.shape:
            raise TraceError(
                f"ops/pages length mismatch: {ops_array.shape} vs {pages_array.shape}"
            )
        if ops_array.size == 0:
            raise TraceError("trace must contain at least one request")
        invalid_ops = ~np.isin(ops_array, (OP_READ, OP_WRITE))
        if invalid_ops.any():
            raise TraceError("trace contains invalid op codes")
        if (pages_array < 0).any():
            raise TraceError("trace contains negative page addresses")
        self.ops = ops_array
        self.pages = pages_array
        self.name = name
        self.write_bandwidth_mbps = write_bandwidth_mbps

    # ------------------------------------------------------------------
    # Streaming adapter
    # ------------------------------------------------------------------
    def stream(self, chunk_size: Optional[int] = None) -> "MaterializedStream":
        """This trace as a chunked :class:`TraceStream` (zero-copy views)."""
        from .stream import DEFAULT_CHUNK_REQUESTS, MaterializedStream

        return MaterializedStream(
            self, chunk_size=chunk_size or DEFAULT_CHUNK_REQUESTS
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def n_requests(self) -> int:
        """Total requests in the trace."""
        return int(self.ops.size)

    @property
    def n_writes(self) -> int:
        """Write requests in the trace."""
        return int((self.ops == OP_WRITE).sum())

    @property
    def write_fraction(self) -> float:
        """Fraction of requests that are writes."""
        return self.n_writes / self.n_requests

    @property
    def footprint_pages(self) -> int:
        """Number of distinct pages the trace touches."""
        return int(np.unique(self.pages).size)

    def write_pages(self) -> np.ndarray:
        """Page addresses of the write requests, in order."""
        return self.pages[self.ops == OP_WRITE]

    def requests(self) -> Iterator[MemoryRequest]:
        """Iterate requests as objects (convenience; slow path)."""
        for op, page in zip(self.ops.tolist(), self.pages.tolist()):
            yield MemoryRequest(op, page)

    def __len__(self) -> int:
        return self.n_requests

    def __repr__(self) -> str:
        return (
            f"Trace(name={self.name!r}, requests={self.n_requests}, "
            f"writes={self.n_writes}, footprint={self.footprint_pages})"
        )
