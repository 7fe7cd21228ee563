"""Metric names each workload process emits.

Units, directions and bounds live in ``BENCHMARK.json``; the
orchestrator attaches them and rejects a run whose metric set differs
from the declared one.  A traced engine run emits the engine layers and
a traced campaign run the campaign layers; each reads 0 for the other
kind's layers, which its workload never exercises.
"""

from __future__ import annotations

from typing import List

#: Schemes of the engine workloads, in run order.
ENGINE_SCHEMES = ("nowl", "startgap", "sr", "bwl", "twl", "twl_sparse")

#: Schemes whose demand-write rate is an end-to-end metric.  Every
#: workload runs them: the engine workloads directly, the campaign as
#: Figure-6 rows (``twl`` is the paper's TWL, ``twl_swp``).
E2E_SCHEMES = ("nowl", "sr", "bwl", "twl")

#: Per-scheme layer metrics of a traced engine run.  ``*_frac`` is the
#: layer's self time as a share of that scheme's traced ``drive()``
#: wall; the shares of one scheme sum to 1.
ENGINE_SCHEME_LAYERS = (
    "engine.self_frac",
    "engine.emit_snapshot_frac",
    "attacks.next_writes_frac",
    "traces.next_chunk_frac",
    "drivers.next_batch_self_frac",
    "drivers.observe_batch_frac",
    "scheme.write_batch_self_frac",
    "scheme.scalar_frac",
    "scheme.scalar_writes",
    "pcm.apply_frac",
    "pcm.apply_calls",
    "sim.device_writes_per_demand",
    "sim.swap_events",
)

#: Workload-wide layer metrics of a traced engine run (per round).
ENGINE_LAYERS = (
    "engine.steps",
    "engine.batch_fill",
    "engine.snapshots",
    "traces.chunks",
    "traces.requests_per_write",
)

#: Layer metrics of a traced campaign run.
CAMPAIGN_LAYERS = (
    "exec.cache_hit_frac",
    "exec.cache_get_frac",
    "exec.cache_put_frac",
    "exec.fingerprint_frac",
    "exec.parallel_efficiency",
    "exec.warm_over_cold",
    "serve.server_frac",
    "serve.tail_ratio",
    "serve.cold_over_exec",
    "serve.source.run",
    "serve.source.journal",
    "serve.source.cache",
    "serve.source.coalesced",
    "serve.rejected",
    "serve.samples",
)

#: Emitted by every traced run.
OVERHEAD = "trace.overhead_frac"


def engine_layer_names() -> List[str]:
    per_scheme = [f"{layer}.{s}" for layer in ENGINE_SCHEME_LAYERS for s in ENGINE_SCHEMES]
    return per_scheme + list(ENGINE_LAYERS) + [OVERHEAD]


def campaign_layer_names() -> List[str]:
    return list(CAMPAIGN_LAYERS) + [OVERHEAD]
