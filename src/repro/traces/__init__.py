"""Memory request traces and synthetic workload generation.

The paper collects PARSEC memory traces from gem5 and loops them until a
page wears out.  We reproduce the same methodology with synthetic traces
whose two wear-relevant statistics — write bandwidth and write
concentration — are calibrated per benchmark from the paper's own
Table 2 (see ``repro.traces.parsec``).

The workload pipeline is **streaming-first** (``docs/workloads.md``):
:class:`TraceStream` is the canonical chunked, rewindable source;
:class:`Trace` is its materialized adapter.  On-disk formats (monolithic
``.npz``, chunked ``.twt``, text, block-trace CSV) all open through
:func:`open_trace_stream`; :func:`make_stream` builds registered
dynamic generators (the FTL workload) sized to a scheme's address
space.
"""

from .request import MemoryRequest, OP_READ, OP_WRITE
from .trace import Trace
from .stream import (
    DEFAULT_CHUNK_REQUESTS,
    MaterializedStream,
    TraceStream,
)
from .synth import (
    zipf_weights,
    zipf_alpha_for_concentration,
    make_zipf_trace,
)
from .parsec import BenchmarkProfile, PARSEC_TABLE2, get_profile, make_benchmark_trace
from .io import open_trace_stream, save_trace, load_trace
from .chunked import ChunkedFileStream, ChunkedTraceWriter, save_chunked_trace
from .text_format import TextTraceStream, load_text_trace, save_text_trace
from .blocktrace import BlockTraceStream, load_block_trace
from .ftl import FTLConfig, FTLWorkloadStream
from .registry import STREAM_FACTORIES, make_stream, stream_names

__all__ = [
    "MemoryRequest",
    "OP_READ",
    "OP_WRITE",
    "Trace",
    "TraceStream",
    "MaterializedStream",
    "DEFAULT_CHUNK_REQUESTS",
    "zipf_weights",
    "zipf_alpha_for_concentration",
    "make_zipf_trace",
    "BenchmarkProfile",
    "PARSEC_TABLE2",
    "get_profile",
    "make_benchmark_trace",
    "open_trace_stream",
    "save_trace",
    "load_trace",
    "ChunkedFileStream",
    "ChunkedTraceWriter",
    "save_chunked_trace",
    "TextTraceStream",
    "load_text_trace",
    "save_text_trace",
    "BlockTraceStream",
    "load_block_trace",
    "FTLConfig",
    "FTLWorkloadStream",
    "STREAM_FACTORIES",
    "make_stream",
    "stream_names",
]
