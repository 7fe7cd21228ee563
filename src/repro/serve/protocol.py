"""Wire protocol of the campaign service: NDJSON frames + cell codec.

One frame is one UTF-8 JSON object terminated by ``\\n`` — trivially
streamable, greppable in a packet capture, and bounded: frames longer
than :data:`MAX_FRAME_BYTES` are rejected with a structured
``oversized`` error instead of buffering without limit.

Requests (client → server)::

    {"op": "submit", "id": "r1", "session": "alice",
     "cell": {...}, "deadline": 30.0}
    {"op": "ping", "id": "r2"}
    {"op": "stats", "id": "r3"}

Responses (server → client) always echo ``id`` and carry the current
``degraded`` flag::

    {"format": 1, "id": "r1", "ok": true, "status": "done",
     "kind": "lifetime", "payload": {...}, "source": "run",
     "seconds": 1.83, "degraded": false}
    {"format": 1, "id": "r1", "ok": false, "status": "rejected",
     "error": {"code": "overloaded", "message": "..."}, "degraded": false}

``source`` distinguishes fresh execution (``run``) from the shared
content-addressed cache (``cache``), a result already in the
submitting session's own directory (``journal``; clients count that
label, so it stays), and a duplicate submission coalesced onto an
in-flight execution (``coalesced``) — all four are bit-identical by the
executor's identity contract.

Cell codec
----------

``cell`` is the :func:`repro.exec.hashing.canonical_value` form of an
:class:`~repro.exec.cells.ExperimentCell` — the exact representation
the cache fingerprint hashes, so a submitted cell fingerprints
identically on the server.  Dataclasses ride as
``{"__dataclass__": "TWLConfig", "fields": {...}}`` against an explicit
registry of config types; nothing is ever unpickled from the wire.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, Optional, Tuple, Type

from ..config import (
    BWLConfig,
    PCMConfig,
    ScaledArrayConfig,
    SecurityRefreshConfig,
    SoftErrorConfig,
    StartGapConfig,
    TimingConfig,
    TWLConfig,
    WRLConfig,
)
from ..errors import ConfigError
from ..exec.cells import ExperimentCell
from ..exec.hashing import canonical_value
from ..traces.ftl import FTLConfig
from ..traces.parsec import BenchmarkProfile

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "OP_SUBMIT",
    "OP_PING",
    "OP_STATS",
    "ERROR_MALFORMED",
    "ERROR_OVERSIZED",
    "ERROR_OVERLOADED",
    "ERROR_DEADLINE",
    "ERROR_FAILED",
    "ERROR_SHUTDOWN",
    "ProtocolError",
    "encode_cell",
    "decode_cell",
    "encode_frame",
    "decode_frame",
    "error_response",
]

#: Response schema version.
PROTOCOL_VERSION = 1

#: Hard per-frame byte limit (request and response).  A cell spec is a
#: few KiB; 1 MiB leaves two orders of magnitude of headroom while
#: bounding what a slow-loris or garbage writer can make the server
#: buffer for one line.
MAX_FRAME_BYTES = 1 << 20

#: Request operations.
OP_SUBMIT = "submit"
OP_PING = "ping"
OP_STATS = "stats"
OPS = (OP_SUBMIT, OP_PING, OP_STATS)

#: Structured rejection codes (the NDJSON analogue of HTTP statuses).
ERROR_MALFORMED = "malformed"  # undecodable or schema-violating frame
ERROR_OVERSIZED = "oversized"  # frame exceeded MAX_FRAME_BYTES
ERROR_OVERLOADED = "overloaded"  # admission queue full (503-style)
ERROR_DEADLINE = "deadline"  # per-request deadline expired
ERROR_FAILED = "failed"  # cell executed and failed
ERROR_SHUTDOWN = "shutdown"  # server is draining


class ProtocolError(ConfigError):
    """A frame that decodes as JSON but violates the request schema."""


#: Config dataclasses allowed on the wire, by class name.  An explicit
#: allowlist: decoding never instantiates a type a client names unless
#: it is one of these spec carriers (each validates itself in
#: ``__post_init__``).
_WIRE_DATACLASSES: Tuple[Type[Any], ...] = (
    PCMConfig,
    ScaledArrayConfig,
    TimingConfig,
    TWLConfig,
    SecurityRefreshConfig,
    StartGapConfig,
    WRLConfig,
    BWLConfig,
    SoftErrorConfig,
    FTLConfig,
    BenchmarkProfile,
    ExperimentCell,
)
_REGISTRY: Dict[str, Type[Any]] = {cls.__name__: cls for cls in _WIRE_DATACLASSES}


def encode_cell(cell: ExperimentCell) -> Dict[str, Any]:
    """The canonical JSON-able form of ``cell`` (fingerprint-stable)."""
    encoded = canonical_value(cell)
    assert isinstance(encoded, dict)
    return encoded


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict):
        if "__dataclass__" in value:
            return _decode_dataclass(value)
        return {key: _decode_value(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_decode_value(item) for item in value]
    return value


def _decode_dataclass(record: Dict[str, Any]) -> Any:
    name = record.get("__dataclass__")
    cls = _REGISTRY.get(name) if isinstance(name, str) else None
    if cls is None:
        raise ProtocolError(f"unknown dataclass {name!r} on the wire")
    fields = record.get("fields")
    if not isinstance(fields, dict):
        raise ProtocolError(f"dataclass {name} frame carries no fields object")
    declared = {field.name: field for field in dataclasses.fields(cls)}
    kwargs: Dict[str, Any] = {}
    for key, raw in fields.items():
        field = declared.get(key)
        if field is None:
            raise ProtocolError(f"dataclass {name} has no field {key!r}")
        value = _decode_value(raw)
        # canonical_value lowers tuples to lists; restore declared
        # tuple fields (e.g. SoftErrorConfig.targets) so decoded specs
        # are hashable and equal to locally-built ones.
        if isinstance(value, list) and "uple[" in str(field.type):
            value = tuple(value)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except TypeError as error:
        raise ProtocolError(
            f"dataclass {name} rejected wire fields: {error}"
        ) from error


def decode_cell(record: Any) -> ExperimentCell:
    """Rebuild an :class:`ExperimentCell` from its wire form.

    Raises :class:`ProtocolError` for anything that is not a
    well-formed cell — including specs whose own ``__post_init__``
    validation rejects them (a bad client must never crash a handler).
    """
    if not isinstance(record, dict) or record.get("__dataclass__") != "ExperimentCell":
        raise ProtocolError("submit frame carries no ExperimentCell")
    try:
        cell = _decode_dataclass(record)
    except ConfigError:
        raise
    except Exception as error:  # noqa: BLE001 - wire data is hostile
        raise ProtocolError(f"undecodable cell spec: {error}") from error
    if not isinstance(cell, ExperimentCell):  # pragma: no cover - defensive
        raise ProtocolError("decoded object is not an ExperimentCell")
    return cell


def encode_frame(record: Dict[str, Any]) -> bytes:
    """One wire frame: compact JSON + newline, size-checked."""
    data = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    payload = data.encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return payload


def decode_frame(line: bytes) -> Dict[str, Any]:
    """Parse one request frame; :class:`ProtocolError` on any defect."""
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(line)} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    try:
        record = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"frame is not valid JSON: {error}") from error
    if not isinstance(record, dict):
        raise ProtocolError("frame must be a JSON object")
    op = record.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; expected one of {OPS}")
    request_id = record.get("id")
    if not isinstance(request_id, str) or not request_id:
        raise ProtocolError("frame carries no request id")
    return record


def error_response(
    request_id: Optional[str],
    code: str,
    message: str,
    degraded: bool = False,
) -> Dict[str, Any]:
    """A structured rejection/failure envelope."""
    return {
        "format": PROTOCOL_VERSION,
        "id": request_id if request_id else "",
        "ok": False,
        "status": "rejected" if code in (
            ERROR_MALFORMED, ERROR_OVERSIZED, ERROR_OVERLOADED, ERROR_SHUTDOWN
        ) else "failed",
        "error": {"code": code, "message": message},
        "degraded": degraded,
    }
