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
:meth:`Trace.from_stream` gathers a (finite or capped) stream back into
a trace.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional

import numpy as np

from ..errors import TraceError
from ..units import mbps_to_bytes_per_second
from .request import MemoryRequest, OP_READ, OP_WRITE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .stream import MaterializedStream, TraceStream


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
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_requests(
        cls,
        requests: List[MemoryRequest],
        name: str = "trace",
        write_bandwidth_mbps: Optional[float] = None,
    ) -> "Trace":
        """Build a trace from request objects."""
        ops = np.array([r.op for r in requests], dtype=np.uint8)
        pages = np.array([r.logical_page for r in requests], dtype=np.int64)
        return cls(ops, pages, name=name, write_bandwidth_mbps=write_bandwidth_mbps)

    @classmethod
    def writes_only(
        cls,
        pages,
        name: str = "trace",
        write_bandwidth_mbps: Optional[float] = None,
    ) -> "Trace":
        """Build an all-write trace from a page sequence."""
        pages_array = np.asarray(pages, dtype=np.int64)
        ops = np.full(pages_array.size, OP_WRITE, dtype=np.uint8)
        return cls(ops, pages_array, name=name, write_bandwidth_mbps=write_bandwidth_mbps)

    @classmethod
    def from_stream(
        cls, stream: "TraceStream", max_requests: Optional[int] = None
    ) -> "Trace":
        """Materialize a stream (rewound; capped at ``max_requests``)."""
        return stream.materialize(max_requests=max_requests)

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

    @property
    def max_page(self) -> int:
        """Highest page address referenced."""
        return int(self.pages.max())

    @property
    def write_bandwidth_bytes(self) -> Optional[float]:
        """Write bandwidth in bytes/second, if the trace declares one."""
        if self.write_bandwidth_mbps is None:
            return None
        return mbps_to_bytes_per_second(self.write_bandwidth_mbps)

    def write_pages(self) -> np.ndarray:
        """Page addresses of the write requests, in order."""
        return self.pages[self.ops == OP_WRITE]

    def write_histogram(self, n_pages: int) -> np.ndarray:
        """Per-page write counts over ``[0, n_pages)``."""
        writes = self.write_pages()
        if writes.size and int(writes.max()) >= n_pages:
            raise TraceError(
                f"trace touches page {int(writes.max())} >= n_pages {n_pages}"
            )
        return np.bincount(writes, minlength=n_pages)

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
