"""Stable content hashes for experiment cells.

The on-disk result cache keys each cell on a digest of *everything that
determines its outcome*: the full cell spec (scheme, workload, scaled
array, seed, kwargs with their configuration dataclasses) plus the
source code that computes it.  The digest must be stable across
processes and Python versions — ``hash()`` is salted per interpreter,
so the canonical form is built by hand and hashed with BLAKE2b.

Dataclasses are canonicalized field-by-field (recursively), so changing
any knob of a nested config — say ``TWLConfig.toss_up_interval`` inside
``scheme_kwargs`` — changes the fingerprint and invalidates the cached
entry.  The code is covered by :func:`code_digest`, a hash of the bytes
of every module in :data:`RESULT_SOURCES`: an edit to a scheme, the
engine or the array model moves *every* key, so a cache filled by older
code never serves the edited code.  Code that cannot change a result
(the server, the CLI, the docs) is not digested, so editing it keeps
the cache warm.

>>> from repro.config import ScaledArrayConfig
>>> from repro.exec.cells import attack_cell
>>> scaled = ScaledArrayConfig(n_pages=64, endurance_mean=768.0)
>>> cell = attack_cell("twl_swp", "scan", scaled=scaled, seed=7)

The fingerprint is a pure function of the spec — rebuilding an
equivalent cell reproduces it exactly:

>>> cell_fingerprint(cell) == cell_fingerprint(
...     attack_cell("twl_swp", "scan", scaled=scaled, seed=7))
True

Any spec change — a different seed, scheme, or nested config field —
yields a different key:

>>> cell_fingerprint(cell) == cell_fingerprint(
...     attack_cell("twl_swp", "scan", scaled=scaled, seed=8))
False
>>> from repro.config import TWLConfig
>>> cell_fingerprint(cell) == cell_fingerprint(attack_cell(
...     "twl_swp", "scan", scaled=scaled, seed=7,
...     scheme_kwargs={"config": TWLConfig(toss_up_interval=16)}))
False

A cell that streams an on-disk trace (``trace_path``) also hashes the
file's contents, so rewriting the trace in place yields a new key.

Every ``ExperimentCell`` field is classified as **identity-bearing**
(:data:`CELL_IDENTITY_FIELDS`, hashed into the digest) or an
**execution knob** (:data:`CELL_EXECUTION_FIELDS`, excluded).
``batch_size`` is a knob because the engine's batch-identity contract
guarantees batched execution is bit-identical to per-write execution;
``label`` is a knob because it is display-only and never reaches
:func:`~repro.exec.cells.run_cell`'s result.  A cached result is
therefore valid at any batch size and under any label:

>>> import dataclasses
>>> cell_fingerprint(cell) == cell_fingerprint(
...     dataclasses.replace(cell, batch_size=4096))
True
>>> cell_fingerprint(cell) == cell_fingerprint(
...     dataclasses.replace(cell, chunk_size=1024))
True
>>> cell_fingerprint(cell) == cell_fingerprint(
...     dataclasses.replace(cell, label="fig6 row 3"))
True

The snapshot cadence and directory are knobs by the sub-cell recovery
contract: emission is inert and a resumed run is bit-identical to an
uninterrupted one, so checkpointed and plain runs share one cache slot
(and a resume after changing only knobs still finds its snapshot):

>>> cell_fingerprint(cell) == cell_fingerprint(
...     dataclasses.replace(cell, snapshot_every=100_000))
True
>>> cell_fingerprint(cell) == cell_fingerprint(
...     dataclasses.replace(cell, snapshot_dir="/tmp/snaps"))
True

The classification must stay exhaustive: a field in neither set makes
:func:`cell_fingerprint` raise (and lint rule TWL003 fail statically),
so adding a spec field without deciding its cache role is an error,
never a silent cache-poisoning bug (``docs/invariants.md``).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
from typing import Any, FrozenSet, Tuple

from ..errors import ConfigError
from ..traces.io import trace_digest

#: Bump when the serialized cache payload layout changes.
CACHE_FORMAT_VERSION = 1

#: The ``repro`` source that decides a cell's result, as packages and
#: modules relative to the package root.  :func:`code_digest` hashes
#: every ``.py`` file under them; ``tests/test_exec.py`` checks that
#: the static import closure of ``repro/exec/cells.py`` is covered.
RESULT_SOURCES: Tuple[str, ...] = (
    "analysis/calibration.py",
    "attacks",
    "bloom",
    "config.py",
    "core",
    "engine",
    "errors.py",
    "exec/cells.py",
    "exec/hashing.py",
    "pcm",
    "rng",
    "sim",
    "tables",
    "traces",
    "units.py",
    "wearlevel",
)

_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: ``ExperimentCell`` fields that determine the experiment's outcome —
#: each one is hashed into the cache fingerprint, so changing it
#: invalidates the cached result.
CELL_IDENTITY_FIELDS: FrozenSet[str] = frozenset(
    {
        "kind",
        "scheme",
        "workload",
        "scaled",
        "seed",
        "scheme_kwargs",
        "attack_kwargs",
        "trace_writes",
        "drive_writes",
        "footprint_override",
        "profile",
        "soft_errors",
        "trace_path",
        "stream_kwargs",
    }
)

#: ``ExperimentCell`` fields that cannot change the result (execution
#: knobs / display metadata) — excluded from the fingerprint, so a
#: cached result is reused across any of their values.  ``chunk_size``
#: is a knob by the same contract as ``batch_size``: stream chunk
#: segmentation changes delivery granularity, never the request
#: sequence.
CELL_EXECUTION_FIELDS: FrozenSet[str] = frozenset(
    {
        "batch_size",
        "check_invariants",
        "chunk_size",
        "label",
        "snapshot_dir",
        "snapshot_every",
    }
)


def canonical_value(value: Any) -> Any:
    """JSON-representable canonical form of ``value``.

    Dataclasses become tagged ``{field: canonical(value)}`` mappings,
    dicts are key-sorted, tuples become lists; anything else falls back
    to ``repr``.  The result round-trips deterministically through
    ``json.dumps(..., sort_keys=True)``.

    >>> canonical_value({"b": 2, "a": (1, None)})
    {'a': [1, None], 'b': 2}
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: canonical_value(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return {"__dataclass__": type(value).__name__, "fields": fields}
    if isinstance(value, dict):
        return {str(key): canonical_value(value[key]) for key in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [canonical_value(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def _check_exhaustive(cell: Any) -> None:
    """Raise unless every cell field has a declared cache role (TWL003)."""
    actual = {field.name for field in dataclasses.fields(cell)}
    unclassified = actual - CELL_IDENTITY_FIELDS - CELL_EXECUTION_FIELDS
    if unclassified:
        raise ConfigError(
            f"{type(cell).__name__} field(s) {sorted(unclassified)} are "
            "classified neither as fingerprint identity nor as execution "
            "knobs; add them to CELL_IDENTITY_FIELDS or "
            "CELL_EXECUTION_FIELDS in repro.exec.hashing (TWL003, see "
            "docs/invariants.md)"
        )


@functools.lru_cache(maxsize=None)
def code_digest() -> str:
    """Hex digest of the result-bearing source of this ``repro``.

    Covers each ``.py`` file under :data:`RESULT_SOURCES` by its
    ``/``-separated path relative to the package and by its bytes, in
    sorted path order.  Computed once per process (the source does not
    change under a running campaign).
    """
    paths = []
    for source in RESULT_SOURCES:
        full = os.path.join(_PACKAGE_ROOT, source)
        if not os.path.isdir(full):
            paths.append(full)
            continue
        for directory, subdirs, files in os.walk(full):
            subdirs[:] = [name for name in subdirs if name != "__pycache__"]
            paths.extend(
                os.path.join(directory, name) for name in files if name.endswith(".py")
            )
    digest = hashlib.blake2b(digest_size=16)
    for path in sorted(paths):
        with open(path, "rb") as handle:
            data = handle.read()
        name = os.path.relpath(path, _PACKAGE_ROOT).replace(os.sep, "/").encode()
        digest.update(b"%d:%s:%d:" % (len(name), name, len(data)))
        digest.update(data)
    return digest.hexdigest()


def cell_fingerprint(cell: Any) -> str:
    """Hex digest keying ``cell`` in the on-disk result cache.

    The digest covers the canonicalized identity fields of the cell
    spec (:data:`CELL_IDENTITY_FIELDS`), the :func:`code_digest`, the
    cache format version and, for a cell that sets ``trace_path``, the
    trace file's contents (:func:`~repro.traces.io.trace_digest`); see
    the module docstring for the invalidation rules this implies.
    Raises :class:`~repro.errors.ConfigError` on a spec field with no
    declared cache role, and :class:`~repro.errors.TraceError` naming
    the path when a ``trace_path`` file is missing or unreadable.
    """
    _check_exhaustive(cell)
    canonical_cell = canonical_value(cell)
    if isinstance(canonical_cell, dict):
        for knob in sorted(CELL_EXECUTION_FIELDS):
            canonical_cell.get("fields", {}).pop(knob, None)
    identity = {
        "cell": canonical_cell,
        "code": code_digest(),
        "format": CACHE_FORMAT_VERSION,
    }
    if cell.trace_path is not None:
        identity["trace_digest"] = trace_digest(cell.trace_path)
    payload = json.dumps(identity, sort_keys=True)
    return hashlib.blake2b(payload.encode(), digest_size=16).hexdigest()
