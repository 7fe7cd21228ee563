"""Resilient campaign service: experiment cells over a socket.

``twl-repro serve`` turns the one-shot campaign executor into a
long-lived, failure-tolerant service (ROADMAP open item 2): many
concurrent clients submit experiment cells and trace-stream specs as
newline-delimited JSON over TCP or a UNIX socket, and the server runs
them on the executor's pool supervisor (:mod:`repro.exec.pool`, one
worker-loss policy for both) under the full robustness stack — bounded
admission with structured backpressure, per-request deadlines, pool
rebuild with retry on worker loss and graceful degradation,
per-session result persistence, and drain-then-exit shutdown.
SoftWear (arxiv 2004.03244) frames wear leveling itself as a runtime
service; this package makes the same move for the reproduction.

* :mod:`repro.serve.protocol` — the NDJSON wire codec: request/response
  schemas, the cell codec (canonical dataclass-tagged JSON), error
  codes, frame limits;
* :mod:`repro.serve.server` — :class:`CampaignServer`, the asyncio
  front-end over the pool supervisor;
* :mod:`repro.serve.session` — :class:`SessionStore`, per-session
  exclusively-owned result directories giving bit-identical resume
  across server restarts;
* :mod:`repro.serve.loadgen` — the load-generator client doubling as
  the heavy-traffic benchmark and the seeded chaos harness;
* :mod:`repro.serve.cli` — ``twl-repro serve`` / ``twl-repro loadgen``.

The guarantees (and their limits) are documented in
``docs/serving.md``; the chaos acceptance gate is
``benchmarks/serve_chaos_check.py`` (``make quick-serve``).
"""

from .protocol import (
    ERROR_DEADLINE,
    ERROR_FAILED,
    ERROR_MALFORMED,
    ERROR_OVERLOADED,
    ERROR_OVERSIZED,
    ERROR_SHUTDOWN,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    decode_cell,
    decode_frame,
    encode_cell,
    encode_frame,
)
from .server import CampaignServer, ServerConfig
from .session import SessionStore, valid_session_name

__all__ = [
    "ERROR_DEADLINE",
    "ERROR_FAILED",
    "ERROR_MALFORMED",
    "ERROR_OVERLOADED",
    "ERROR_OVERSIZED",
    "ERROR_SHUTDOWN",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "decode_cell",
    "decode_frame",
    "encode_cell",
    "encode_frame",
    "CampaignServer",
    "ServerConfig",
    "SessionStore",
    "valid_session_name",
]
